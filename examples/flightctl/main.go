// flightctl: a time-critical control loop in the style the paper's
// conclusion motivates ("the asynchronous method ... is not acceptable for
// time-critical tasks in which a delay in system response beyond ... the
// system deadline leads to a catastrophic failure").
//
// Three processes — sensor fusion, guidance, and actuation — run
// synchronized recovery blocks: every control frame ends in a conversation
// (test line), so a recovery line exists per frame and rollback can never
// exceed one frame. A corrupted guidance computation is caught by the test
// line's acceptance test; all three processes retry the frame together.
package main

import (
	"fmt"
	"log"

	rb "recoveryblocks"
)

const frames = 4

// state layout: [0] frame counter, [1] data value, [2] retry marker
func program(id int, next, prev int) rb.Program {
	b := rb.NewBuilder()
	for f := 0; f < frames; f++ {
		name := fmt.Sprintf("frame%d", f)
		b.Work(name+"/compute", func(c *rb.Ctx) {
			s := c.State.(rb.Ints)
			s[0]++                // frame advanced
			s[1] += int64(id) + 1 // each role contributes its own data
		})
		// Exchange: each role hands its contribution down the chain.
		b.Send(next, name+"/feed", func(c *rb.Ctx) rb.Value {
			return c.State.(rb.Ints)[1]
		})
		b.Recv(prev, name+"/feed", func(c *rb.Ctx, v rb.Value) {
			s := c.State.(rb.Ints)
			s[1] += v.(int64) / 2
		})
		// The frame's test line: every process checks its own invariant at
		// the same instant; the saved states form the frame's recovery line.
		b.Conversation(name+"/testline", func(c *rb.Ctx) bool {
			s := c.State.(rb.Ints)
			return s[0] == int64(f)+1 && s[1] >= 0
		})
	}
	return b.MustBuild()
}

func main() {
	progs := make([]rb.Program, 3)
	states := make([]rb.State, 3)
	for i := 0; i < 3; i++ {
		progs[i] = program(i, (i+1)%3, (i+2)%3)
		states[i] = make(rb.Ints, 3)
	}
	// Frame 2's test line rejects once at the guidance process (process 1):
	// a transient computation error, detected at the synchronized acceptance
	// test — all processes roll back exactly one frame and retry.
	// Each frame is 4 steps; the conversation of frame f sits at pc 4f+3.
	at := rb.NewATPlan(rb.ATOverride{Proc: 1, PC: 4*2 + 3, Fails: 1})

	sys, err := rb.NewSystem(rb.Config{ATs: at, Trace: true}, progs, states)
	if err != nil {
		log.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("flightctl: synchronized recovery blocks, one test line per control frame")
	fmt.Printf("frames flown: %d   recoveries: %d\n", frames, m.Recoveries)
	for i, ps := range m.Procs {
		role := []string{"sensor", "guidance", "actuation"}[i]
		// ConversationWait (steps the other processes ran while this one
		// waited at test lines) is not printed: it counts scheduler turns,
		// not frame time, so it would say little about the control loop.
		fmt.Printf("  %-9s work=%d discarded=%d lines=%d ATfail=%d\n",
			role, ps.WorkDone, ps.WorkDiscarded, ps.ConversationsSaved,
			ps.ATFailures)
	}
	// The guarantee the paper's Section 3 buys: rollback never crosses one
	// frame boundary, so the worst-case recovery delay is bounded — the
	// property a deadline-driven system needs.
	worst := 0
	for _, ps := range m.Procs {
		if ps.WorkDiscarded > worst {
			worst = ps.WorkDiscarded
		}
	}
	fmt.Printf("worst per-process rollback: %d work units (bound: one frame = 1 unit of compute)\n", worst)
	if m.DominoToStart != 0 {
		log.Fatal("BUG: a synchronized system can never domino to the start")
	}
	final := sys.FinalStates()
	for i, st := range final {
		fmt.Printf("  P%d final state: frames=%d value=%d\n", i+1, st.(rb.Ints)[0], st.(rb.Ints)[1])
	}
}
