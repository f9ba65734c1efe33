package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// The tests in this file are run under the race detector too (the CI race
// job runs `go test -race ./...`). A System runs on one goroutine, so what
// they check there is that independent systems share no state and that the
// post-run accessors are safe to call from many goroutines. Everywhere they
// check that the fault and AT plans still fire: message logging and
// purging, conversation barriers, PRP implantation and the recovery paths
// all run.

// stressProgram builds a ring worker: rounds of (recovery block + work +
// send/recv with both neighbors), with a conversation barrier every convEvery
// rounds (0 disables conversations).
func stressProgram(id, n, rounds, convEvery int) Program {
	next := (id + 1) % n
	prev := (id + n - 1) % n
	b := NewBuilder()
	for r := 0; r < rounds; r++ {
		name := fmt.Sprintf("r%d", r)
		b.BeginBlock(name, 2).
			Work(name+"/w", func(c *Ctx) {
				s := c.State.(Ints)
				s[0]++
				s[1] += int64(c.Rng.Intn(100))
			}).
			EndBlock(name, func(c *Ctx) bool { return c.State.(Ints)[0] > 0 }).
			Send(next, name, func(c *Ctx) Value { return c.State.(Ints)[1] }).
			Recv(prev, name, func(c *Ctx, v Value) {
				c.State.(Ints)[1] += v.(int64) % 7
			})
		if convEvery > 0 && (r+1)%convEvery == 0 {
			b.Conversation(name+"/line", func(c *Ctx) bool { return c.State.(Ints)[0] >= 0 })
		}
	}
	return b.MustBuild()
}

// stressRun assembles and runs one system; fatal on any runtime error.
func stressRun(t *testing.T, n, rounds, convEvery int, strategy Strategy, faults *FaultPlan, ats *ATPlan, seed int64) (Metrics, []State) {
	t.Helper()
	progs := make([]Program, n)
	states := make([]State, n)
	for i := 0; i < n; i++ {
		progs[i] = stressProgram(i, n, rounds, convEvery)
		states[i] = make(Ints, 2)
	}
	sys, err := New(Config{
		Strategy: strategy,
		Seed:     seed,
		Faults:   faults,
		ATs:      ats,
		Trace:    true,
	}, progs, states)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Exercise the post-run accessors concurrently with each other — they
	// must be safe to call from any goroutine once Run returned.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = sys.Trace()
			_ = sys.FinalStates()
		}()
	}
	wg.Wait()
	return m, sys.FinalStates()
}

// The stress plans. Each call builds a fresh plan: a plan counts visits, so
// one run spends it.

func asyncStressFaults() *FaultPlan {
	return NewFaultPlan(
		Fault{Proc: 0, PC: 7, Visit: 1, Kind: FaultLocal},
		Fault{Proc: 2, PC: 12, Visit: 1, Kind: FaultPropagated},
		Fault{Proc: 1, PC: 3, Visit: 2, Kind: FaultLocal},
	)
}

func asyncStressATs() *ATPlan {
	return NewATPlan(
		ATOverride{Proc: 3, PC: 2, Fails: 1},
		ATOverride{Proc: 1, PC: 17, Fails: 1},
	)
}

func prpStressFaults() *FaultPlan {
	return NewFaultPlan(
		Fault{Proc: 1, PC: 12, Visit: 1, Kind: FaultPropagated},
		Fault{Proc: 4, PC: 22, Visit: 1, Kind: FaultLocal},
		Fault{Proc: 0, PC: 17, Visit: 2, Kind: FaultPropagated},
	)
}

// Each round is 5 steps (+1 conversation every 2 rounds); the conversation
// of round 1 is at pc 10 for every process.

func convStressATs() *ATPlan { return NewATPlan(ATOverride{Proc: 2, PC: 10, Fails: 1}) }

func convStressFaults() *FaultPlan {
	return NewFaultPlan(Fault{Proc: 1, PC: 13, Visit: 1, Kind: FaultLocal})
}

func parallelStressFaults(proc int) *FaultPlan {
	return NewFaultPlan(Fault{Proc: proc, PC: 7, Visit: 1, Kind: FaultLocal})
}

// TestRaceStressAsync hammers the asynchronous strategy: local and
// propagated faults plus acceptance-test failures across many processes.
func TestRaceStressAsync(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		m, _ := stressRun(t, 5, 6, 0, StrategyAsync, asyncStressFaults(), asyncStressATs(), seed)
		if m.Recoveries == 0 {
			t.Fatal("stress run recovered zero times — the plan never fired")
		}
	}
}

// TestRaceStressPRP drives pseudo-recovery-point implantation, purging and
// the Section 4 rollback algorithm.
func TestRaceStressPRP(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		m, _ := stressRun(t, 6, 6, 0, StrategyPRP, prpStressFaults(), nil, seed)
		if m.TotalPRPs() == 0 {
			t.Fatal("PRP stress run implanted no pseudo recovery points")
		}
	}
}

// TestRaceStressConversations mixes conversation barriers (including a
// forced test-line failure, which the arrival completing the line recovers
// from while everyone else waits at it) with asynchronous faults between
// the lines.
func TestRaceStressConversations(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		m, _ := stressRun(t, 4, 6, 2, StrategyAsync, convStressFaults(), convStressATs(), seed)
		if m.Recoveries < 2 {
			t.Fatalf("expected conversation + fault recoveries, got %d", m.Recoveries)
		}
	}
}

// TestRaceManySystemsInParallel runs independent systems concurrently — the
// library must not share hidden mutable state between systems.
func TestRaceManySystemsInParallel(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			faults := parallelStressFaults(g % 3)
			progs := make([]Program, 3)
			states := make([]State, 3)
			for i := 0; i < 3; i++ {
				progs[i] = stressProgram(i, 3, 4, 2)
				states[i] = make(Ints, 2)
			}
			sys, err := New(Config{Strategy: StrategyPRP, Seed: int64(g), Faults: faults}, progs, states)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := sys.Run(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// stressCase is one stress workload and plan of this file.
type stressCase struct {
	name                 string
	n, rounds, convEvery int
	strategy             Strategy
	faults               func() *FaultPlan
	ats                  func() *ATPlan
}

// TestRecoveryIsTransparent runs every stress plan above and checks that
// recovery leaves no trace in the result: each run ends in the final states
// of the same programs run with no plan at all.
func TestRecoveryIsTransparent(t *testing.T) {
	cases := []stressCase{
		{"async/faults", 5, 6, 0, StrategyAsync, asyncStressFaults, nil},
		{"async/ATs", 5, 6, 0, StrategyAsync, nil, asyncStressATs},
		{"async/both", 5, 6, 0, StrategyAsync, asyncStressFaults, asyncStressATs},
		{"prp/faults", 6, 6, 0, StrategyPRP, prpStressFaults, nil},
		{"conv/faults", 4, 6, 2, StrategyAsync, convStressFaults, nil},
		{"conv/ATs", 4, 6, 2, StrategyAsync, nil, convStressATs},
		{"conv/both", 4, 6, 2, StrategyAsync, convStressFaults, convStressATs},
	}
	for proc := 0; proc < 3; proc++ {
		proc := proc
		cases = append(cases, stressCase{fmt.Sprintf("parallel/P%d", proc), 3, 4, 2, StrategyPRP,
			func() *FaultPlan { return parallelStressFaults(proc) }, nil})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				var faults *FaultPlan
				var ats *ATPlan
				if c.faults != nil {
					faults = c.faults()
				}
				if c.ats != nil {
					ats = c.ats()
				}
				_, want := stressRun(t, c.n, c.rounds, c.convEvery, c.strategy, nil, nil, seed)
				m, got := stressRun(t, c.n, c.rounds, c.convEvery, c.strategy, faults, ats, seed)
				if m.Recoveries == 0 {
					t.Fatalf("seed %d: the plan never fired", seed)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: final states %v, want %v as without the plan", seed, got, want)
				}
			}
		})
	}
}
