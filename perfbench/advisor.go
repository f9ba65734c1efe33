package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	rb "recoveryblocks"
	"recoveryblocks/internal/scenario"
	"recoveryblocks/internal/strategy"
)

// advisor-corpus runs the chaos stability sweep over a seeded scenario
// corpus with every default perturbation stack, as `rbrepro chaos -corpus
// 200` does.

const (
	corpusSize = 200
	// adviseRounds repeats the direct advisor probe over the corpus so the
	// 99th percentile has at least ten samples beyond it.
	adviseRounds = 5
)

type advisorCorpus struct {
	scs []rb.Scenario
	opt rb.ChaosOptions
}

// advisorAnswers is one pass of advisor-corpus.
type advisorAnswers struct {
	rep    *rb.ChaosReport
	digest [32]byte // of the report's JSON, for pass-to-pass reproducibility
}

func setupAdvisorCorpus(seed int64, workers int, tr *tracer) (runner[advisorAnswers], error) {
	var scs []rb.Scenario
	err := tr.do("chaos.corpus", func() (err error) {
		scs, err = rb.ChaosCorpus(corpusSize, seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &advisorCorpus{scs: scs, opt: rb.ChaosOptions{Workers: workers}}, nil
}

func (c *advisorCorpus) pass(tr *tracer) (advisorAnswers, error) {
	var a advisorAnswers
	err := tr.do("chaos.run", func() (err error) {
		a.rep, err = rb.RunChaos(c.scs, c.opt)
		return err
	})
	if err != nil {
		return a, err
	}
	b, err := a.rep.JSON()
	if err != nil {
		return a, err
	}
	a.digest = sha256.Sum256(b)
	return a, nil
}

// check counts every advisement of the sweep as an answer. Failures are
// unstable cells, perturbed draws priced on a fallback or degraded route,
// clean advice that is not labelled exact, and a report that differs from
// the run's first.
func (c *advisorCorpus) check(a advisorAnswers, first *advisorAnswers) (int, []string) {
	var fails []string
	answers := 0
	for _, sc := range a.rep.Scenarios {
		answers++ // the clean advisement
		if sc.Confidence != scenario.ConfidenceExact {
			fails = append(fails, fmt.Sprintf("%s: clean advice labelled %q", sc.Scenario, sc.Confidence))
		}
		for _, cell := range sc.Cells {
			answers += cell.Draws
			if cell.Unstable {
				fails = append(fails, fmt.Sprintf("%s under %s: unstable (flip rate %.3f)", sc.Scenario, cell.Stack, cell.FlipRate))
			}
			for d := 0; d < cell.DegradedDraws; d++ {
				fails = append(fails, fmt.Sprintf("%s under %s: perturbed draw not priced exactly", sc.Scenario, cell.Stack))
			}
		}
	}
	if first != nil && a.digest != first.digest {
		fails = append(fails, "chaos report differs from the first pass")
	}
	return answers, fails
}

// probe prices every corpus scenario directly: AdviseCtx per scenario, and
// each requested strategy's Price on the scenario's workload, each call
// timed on its own.
func (c *advisorCorpus) probe(tr *tracer, _ advisorAnswers, layer map[string]float64) error {
	advise := make([]float64, 0, adviseRounds*len(c.scs))
	price := make(map[strategy.Name][]float64)
	for round := 0; round < adviseRounds; round++ {
		for _, sc := range c.scs {
			id := tr.begin("scenario.advise")
			t0 := time.Now()
			_, err := scenario.AdviseCtx(context.Background(), sc)
			advise = append(advise, ms(time.Since(t0)))
			tr.end(id)
			if err != nil {
				return fmt.Errorf("advise %s: %w", sc.Name, err)
			}
			w := workloadOf(sc)
			for _, name := range sc.Strategies {
				st, ok := strategy.Lookup(name)
				if !ok {
					return fmt.Errorf("%s: unknown strategy %q", sc.Name, name)
				}
				id := tr.begin("strategy.price." + string(name))
				t0 := time.Now()
				_, err := st.Price(w)
				price[name] = append(price[name], ms(time.Since(t0)))
				tr.end(id)
				if err != nil {
					return fmt.Errorf("price %s on %s: %w", name, sc.Name, err)
				}
			}
		}
	}
	layer["scenario.advise_ms_p50"] = median(advise)
	layer["scenario.advise_ms_p99"] = quantile(advise, 0.99)
	layer["scenario.advise_count"] = float64(len(advise))
	for name, ts := range price {
		layer["strategy.price_ms."+string(name)] = median(ts)
	}
	return nil
}

// workloadOf is the strategy workload the advisor prices for a scenario.
func workloadOf(sc rb.Scenario) strategy.Workload {
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
