package linalg

import "math"

// Dot returns the inner product of a and b. It panics on length mismatch.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// AXPY computes y += alpha*x in place. It panics on length mismatch.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: AXPY length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// NormInf returns the largest absolute value.
func NormInf(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Sum returns the plain sum of the elements.
func Sum(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

// CloneVec returns a copy of x.
func CloneVec(x []float64) []float64 {
	y := make([]float64, len(x))
	copy(y, x)
	return y
}

// Norm2 returns the Euclidean norm.
func Norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
