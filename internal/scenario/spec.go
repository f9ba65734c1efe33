package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"recoveryblocks/internal/rbmodel"
	"recoveryblocks/internal/strategy"
	"recoveryblocks/internal/synch"
)

// Defaults applied while resolving a spec. They are part of the schema
// contract: a spec that omits a field means these values, for every decoder
// version that accepts SpecVersion 1.
const (
	// DefaultReps is the per-estimator replication budget when a scenario
	// omits "reps".
	DefaultReps = 20000
	// QuickReps is the budget the CLI substitutes for built-in families
	// under -quick: small enough for smoke tests, large enough that the
	// equivalence tests keep real power.
	QuickReps = 4000
	// DefaultSeed pins all randomness when a scenario omits "seed".
	DefaultSeed = 1983
	// DefaultPLocal is the local-vs-propagated error split when a scenario
	// omits "p_local".
	DefaultPLocal = 0.5
	// DefaultSyncInterval is the synchronization request interval τ when a
	// scenario requests the sync strategy but gives no "sync_interval".
	DefaultSyncInterval = 1.0
)

// SyncSpec is the decoded "sync_interval" field: either a positive request
// interval τ, or the string "optimal", meaning the runner resolves τ with
// synch.OptimalInterval from the scenario's error rate.
type SyncSpec struct {
	Optimal bool
	Tau     float64
}

// MarshalJSON renders the field the way the spec writes it.
func (s SyncSpec) MarshalJSON() ([]byte, error) {
	if s.Optimal {
		return []byte(`"optimal"`), nil
	}
	return json.Marshal(s.Tau)
}

// UnmarshalJSON accepts a number or the literal "optimal".
func (s *SyncSpec) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err == nil {
		if str != "optimal" {
			return fmt.Errorf("scenario: sync_interval string must be \"optimal\", got %q", str)
		}
		*s = SyncSpec{Optimal: true}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return errors.New(`scenario: sync_interval must be a number or "optimal"`)
	}
	*s = SyncSpec{Tau: v}
	return nil
}

// Spec is the versioned scenario file: concrete scenarios, parameterized
// families, or both. Decode enforces the schema strictly (unknown fields and
// trailing data are errors), so a typo in a spec fails loudly instead of
// silently running the default workload.
type Spec struct {
	Version   int            `json:"version"`
	Scenarios []ScenarioSpec `json:"scenarios,omitempty"`
	Families  []FamilySpec   `json:"families,omitempty"`
}

// ScenarioSpec is one concrete workload as written in a spec file. The
// process rates come in three interchangeable shapes: a full per-process "mu"
// vector, or a count "n" with an optional uniform rate "mu_uniform"
// (default 1). The interaction structure likewise: a full symmetric
// "lambda_matrix", a uniform per-pair rate "lambda", or a relative density
// "rho" (the paper's ρ = 2·Σλ_ij/Σμ, from which the uniform per-pair rate is
// derived). Exactly one interaction shape may be given; none means no
// interactions.
type ScenarioSpec struct {
	Name           string      `json:"name"`
	N              int         `json:"n,omitempty"`
	MuUniform      float64     `json:"mu_uniform,omitempty"`
	Mu             []float64   `json:"mu,omitempty"`
	Lambda         float64     `json:"lambda,omitempty"`
	LambdaMatrix   [][]float64 `json:"lambda_matrix,omitempty"`
	Rho            float64     `json:"rho,omitempty"`
	SyncInterval   SyncSpec    `json:"sync_interval"`
	SyncEveryK     int         `json:"sync_every_k,omitempty"`
	CheckpointCost float64     `json:"checkpoint_cost,omitempty"`
	Deadline       float64     `json:"deadline,omitempty"`
	ErrorRate      float64     `json:"error_rate,omitempty"`
	PLocal         *float64    `json:"p_local,omitempty"`
	Strategies     []string    `json:"strategies,omitempty"`
	Reps           int         `json:"reps,omitempty"`
	Seed           int64       `json:"seed,omitempty"`
}

// Scenario is one fully resolved workload: every default applied, the
// interaction structure expanded to a full matrix, strategies parsed. This is
// the unit the batch runner and the advisor consume; build it from a spec
// file via Load, from a family via FamilySpec.Expand, or by hand (then call
// Validate).
type Scenario struct {
	Name string
	// Mu holds the per-process recovery-point rates μ_i (length n ≥ 1).
	Mu []float64
	// Lambda is the full symmetric interaction-rate matrix λ_ij with a zero
	// diagonal. All-zero means no interactions.
	Lambda [][]float64
	// OptimalSync selects the synch.OptimalInterval request interval; when
	// false, SyncInterval is the interval τ.
	OptimalSync  bool
	SyncInterval float64
	// EveryK is the sync-every-k block period; 0 means strategy.DefaultEveryK.
	EveryK int
	// CheckpointCost is t_r, the time to record one process state.
	CheckpointCost float64
	// Deadline enables the deadline-miss metrics and checks when positive.
	Deadline float64
	// ErrorRate is θ, the system-wide Poisson error rate weighting the
	// expected rollback loss.
	ErrorRate float64
	// PLocal is the probability an error is local to the failing process
	// (vs propagated), for the PRP metrics.
	PLocal float64
	// Strategies lists the organizations to evaluate and rank.
	Strategies []Strategy
	// Reps is the per-estimator replication budget of the cross-checks.
	Reps int
	// Seed pins every estimator's RNG; distinct estimators derive distinct
	// substream bases from it.
	Seed int64
}

// Decode parses a spec with strict schema checking: unknown fields, trailing
// data and version mismatches are all errors. It never panics, whatever the
// input (the fuzz target in this package pins that down).
func Decode(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: bad spec: %w", err)
	}
	if dec.More() {
		return nil, errors.New("scenario: trailing data after spec document")
	}
	if s.Version != SpecVersion {
		return nil, fmt.Errorf("scenario: unsupported spec version %d (this decoder reads version %d)", s.Version, SpecVersion)
	}
	return &s, nil
}

// Load decodes a spec and expands it into its concrete scenario grid — the
// one-call path behind the facade's LoadScenarios.
func Load(data []byte) ([]Scenario, error) {
	s, err := Decode(data)
	if err != nil {
		return nil, err
	}
	return s.Expand()
}

// Expand resolves every concrete scenario and expands every family, in spec
// order, and rejects duplicate names (a grid with two scenarios of the same
// name would produce an ambiguous report).
func (s *Spec) Expand() ([]Scenario, error) {
	var out []Scenario
	for i := range s.Scenarios {
		sc, err := s.Scenarios[i].Resolve()
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	for i := range s.Families {
		g, err := s.Families[i].Expand()
		if err != nil {
			return nil, err
		}
		out = append(out, g...)
	}
	if len(out) == 0 {
		return nil, errors.New("scenario: spec declares no scenarios and no families")
	}
	seen := make(map[string]bool, len(out))
	for _, sc := range out {
		if seen[sc.Name] {
			return nil, fmt.Errorf("scenario: duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
	}
	return out, nil
}

// Resolve applies the schema defaults and shape expansion, returning a
// validated concrete scenario.
func (ss ScenarioSpec) Resolve() (Scenario, error) {
	var zero Scenario
	if ss.Name == "" {
		return zero, errors.New("scenario: every scenario needs a name")
	}
	fail := func(format string, args ...any) (Scenario, error) {
		return zero, fmt.Errorf("scenario %q: %s", ss.Name, fmt.Sprintf(format, args...))
	}

	// Process rates: "mu" vector, or "n" (+ optional "mu_uniform"). The
	// count is bounded before any n-sized allocation: a hostile or mistyped
	// "n" must fail fast, never panic the runtime (the decoded mu and
	// lambda_matrix arrays are bounded by the input size; the scalar count
	// is the only amplifier).
	if ss.N > rbmodel.MaxExactProcesses || len(ss.Mu) > rbmodel.MaxExactProcesses {
		return fail("n = %d exceeds the exact solver's limit %d",
			max(ss.N, len(ss.Mu)), rbmodel.MaxExactProcesses)
	}
	var mu []float64
	switch {
	case len(ss.Mu) > 0:
		if ss.N != 0 && ss.N != len(ss.Mu) {
			return fail("n = %d contradicts len(mu) = %d", ss.N, len(ss.Mu))
		}
		if ss.MuUniform != 0 {
			return fail("mu and mu_uniform are mutually exclusive")
		}
		mu = append([]float64(nil), ss.Mu...)
	case ss.N >= 1:
		u := ss.MuUniform
		if u == 0 {
			u = 1
		}
		mu = make([]float64, ss.N)
		for i := range mu {
			mu[i] = u
		}
	default:
		return fail("give the rates as mu (array) or n (count, with optional mu_uniform)")
	}
	n := len(mu)

	// Interaction structure: at most one of lambda, lambda_matrix, rho.
	shapes := 0
	if ss.Lambda != 0 {
		shapes++
	}
	if ss.LambdaMatrix != nil {
		shapes++
	}
	if ss.Rho != 0 {
		shapes++
	}
	if shapes > 1 {
		return fail("lambda, lambda_matrix and rho are mutually exclusive")
	}
	var lambda [][]float64
	switch {
	case ss.LambdaMatrix != nil:
		lambda = make([][]float64, len(ss.LambdaMatrix))
		for i := range ss.LambdaMatrix {
			lambda[i] = append([]float64(nil), ss.LambdaMatrix[i]...)
		}
	case ss.Rho != 0:
		if n < 2 {
			return fail("rho needs at least two processes")
		}
		if ss.Rho < 0 || math.IsNaN(ss.Rho) || math.IsInf(ss.Rho, 0) {
			return fail("rho = %v must be nonnegative and finite", ss.Rho)
		}
		sumMu := 0.0
		for _, m := range mu {
			sumMu += m
		}
		// ρ = 2·Σ_{i<j}λ/Σμ with uniform λ over C(n,2) pairs.
		pairs := float64(n*(n-1)) / 2
		lambda = uniformLambda(n, ss.Rho*sumMu/(2*pairs))
	default:
		lambda = uniformLambda(n, ss.Lambda)
	}

	sc := Scenario{
		Name:           ss.Name,
		Mu:             mu,
		Lambda:         lambda,
		OptimalSync:    ss.SyncInterval.Optimal,
		SyncInterval:   ss.SyncInterval.Tau,
		EveryK:         ss.SyncEveryK,
		CheckpointCost: ss.CheckpointCost,
		Deadline:       ss.Deadline,
		ErrorRate:      ss.ErrorRate,
		PLocal:         DefaultPLocal,
		Reps:           ss.Reps,
		Seed:           ss.Seed,
	}
	if ss.PLocal != nil {
		sc.PLocal = *ss.PLocal
	}
	if !sc.OptimalSync && sc.SyncInterval == 0 {
		sc.SyncInterval = DefaultSyncInterval
	}
	if sc.Reps == 0 {
		sc.Reps = DefaultReps
	}
	if sc.Seed == 0 {
		sc.Seed = DefaultSeed
	}
	if len(ss.Strategies) == 0 {
		sc.Strategies = AllStrategies()
	} else {
		for _, name := range ss.Strategies {
			st, err := ParseStrategy(name)
			if err != nil {
				return fail("%v", err)
			}
			sc.Strategies = append(sc.Strategies, st)
		}
	}
	if err := sc.Validate(); err != nil {
		return zero, err
	}
	return sc, nil
}

// uniformLambda builds the full symmetric matrix with every off-diagonal
// entry equal to lambda.
func uniformLambda(n int, lambda float64) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = lambda
			}
		}
	}
	return m
}

// Validate rejects malformed scenarios before any work is spent. It is the
// single gate for hand-built scenarios and resolved specs alike.
func (sc Scenario) Validate() error {
	if sc.Name == "" {
		return errors.New("scenario: needs a name")
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("scenario %q: %s", sc.Name, fmt.Sprintf(format, args...))
	}
	n := len(sc.Mu)
	if n == 0 {
		return fail("needs at least one process")
	}
	if n > rbmodel.MaxExactProcesses {
		return fail("n = %d exceeds the exact solver's limit %d", n, rbmodel.MaxExactProcesses)
	}
	// Params.Validate covers μ positivity and λ shape/symmetry/nonnegativity.
	if err := sc.Params().Validate(); err != nil {
		return fail("%v", err)
	}
	if sc.OptimalSync {
		if sc.ErrorRate <= 0 && (sc.wants(StrategySync) || sc.wants(StrategySyncEveryK)) {
			return fail(`sync_interval "optimal" needs a positive error_rate (with no errors the optimum is to never synchronize)`)
		}
	} else if sc.SyncInterval <= 0 || math.IsNaN(sc.SyncInterval) || math.IsInf(sc.SyncInterval, 0) {
		return fail("sync_interval = %v must be positive and finite", sc.SyncInterval)
	}
	for _, v := range []struct {
		name string
		v    float64
	}{
		{"checkpoint_cost", sc.CheckpointCost},
		{"deadline", sc.Deadline},
		{"error_rate", sc.ErrorRate},
	} {
		if v.v < 0 || math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return fail("%s = %v must be nonnegative and finite", v.name, v.v)
		}
	}
	if sc.PLocal < 0 || sc.PLocal > 1 || math.IsNaN(sc.PLocal) {
		return fail("p_local = %v must be in [0, 1]", sc.PLocal)
	}
	if len(sc.Strategies) == 0 {
		return fail("needs at least one strategy")
	}
	seen := make(map[Strategy]bool, len(sc.Strategies))
	for _, st := range sc.Strategies {
		if _, err := ParseStrategy(string(st)); err != nil {
			return fail("%v", err)
		}
		if seen[st] {
			return fail("strategy %q listed twice", st)
		}
		seen[st] = true
		// Discipline-specific parameter validation (e.g. the sync-every-k
		// block-period bounds) lives with the discipline.
		impl, _ := strategy.Lookup(st)
		if err := impl.Validate(sc.workload()); err != nil {
			return fail("%v", err)
		}
	}
	if sc.Reps < 100 {
		return fail("reps = %d must be ≥ 100 (the equivalence tests need real samples)", sc.Reps)
	}
	return nil
}

// workload converts the scenario into the strategy layer's evaluation cell,
// with the synchronization interval and worker budget as the scenario
// carries them (callers that have resolved "optimal" overwrite SyncInterval
// and clear OptimalSync before handing the workload to Model/Simulate).
func (sc Scenario) workload() strategy.Workload {
	return strategy.Workload{
		Name:           sc.Name,
		Mu:             sc.Mu,
		Lambda:         sc.Lambda,
		SyncInterval:   sc.SyncInterval,
		OptimalSync:    sc.OptimalSync,
		EveryK:         sc.EveryK,
		CheckpointCost: sc.CheckpointCost,
		Deadline:       sc.Deadline,
		ErrorRate:      sc.ErrorRate,
		PLocal:         sc.PLocal,
		Reps:           sc.Reps,
		Seed:           sc.Seed,
		Workers:        1,
	}
}

// Params assembles the rbmodel parameterization of the scenario.
func (sc Scenario) Params() rbmodel.Params {
	p := rbmodel.Params{Mu: append([]float64(nil), sc.Mu...), Lambda: make([][]float64, len(sc.Lambda))}
	for i := range sc.Lambda {
		p.Lambda[i] = append([]float64(nil), sc.Lambda[i]...)
	}
	return p
}

// wants reports whether the scenario evaluates the given strategy.
func (sc Scenario) wants(st Strategy) bool {
	for _, s := range sc.Strategies {
		if s == st {
			return true
		}
	}
	return false
}

// ResolveSyncInterval returns the synchronization request interval the
// evaluation uses: the spec's τ, or — under "optimal" — the overhead-minimizing
// interval for the scenario's error rate (see synch.OptimalInterval).
func (sc Scenario) ResolveSyncInterval() (float64, error) {
	if !sc.OptimalSync {
		return sc.SyncInterval, nil
	}
	tau, _, err := synch.OptimalInterval(sc.Mu, sc.ErrorRate)
	return tau, err
}
