package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzEncoders drives arbitrary metric names and values through the JSON
// report encoder: the report must always be valid JSON whatever bytes the
// metric name carried — a hostile or merely unlucky metric name must not
// corrupt it.
func FuzzEncoders(f *testing.F) {
	f.Add("mc_blocks_total", int64(7), 1.5)
	f.Add("strategy_crosschecks_total_sync-every-k", int64(1), 0.0)
	f.Add("weird metric\nname{}", int64(-3), math.MaxFloat64)
	f.Add("", int64(0), -1.0)
	f.Fuzz(func(t *testing.T, name string, count int64, obsv float64) {
		if !utf8.ValidString(name) || len(name) > 200 {
			t.Skip()
		}
		r := Enable()
		defer Disable()
		C(name).Add(count)
		G(name + "_gauge").Set(obsv)
		if !math.IsNaN(obsv) && !math.IsInf(obsv, 0) {
			H(name + "_hist").Observe(obsv)
		}
		StartSpan(name).End()

		var jsonBuf bytes.Buffer
		if err := r.WriteJSON(&jsonBuf); err != nil {
			// Gauges can hold NaN/Inf, which encoding/json rejects; that is
			// the one legal failure, and it must be reported, not panic.
			if strings.Contains(err.Error(), "unsupported value") {
				return
			}
			t.Fatalf("WriteJSON: %v", err)
		}
		var decoded map[string]any
		if err := json.Unmarshal(jsonBuf.Bytes(), &decoded); err != nil {
			t.Fatalf("report is not valid JSON: %v\n%s", err, jsonBuf.String())
		}
	})
}
