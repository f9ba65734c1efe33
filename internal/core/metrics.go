package core

// ProcStats is the per-process accounting the experiments read out: the
// saved-state counts are the runtime analogue of the paper's L_i, the
// discarded work is the rollback distance, and the conversation wait is the
// computation-power loss CL of Section 3 in runtime units.
type ProcStats struct {
	WorkDone           int // completed work units (net of rollbacks)
	WorkDiscarded      int // work units thrown away by rollbacks
	RPsSaved           int // proper recovery points (L_i)
	PRPsSaved          int // pseudo recovery points implanted here
	ConversationsSaved int // recovery-line checkpoints from conversations
	CheckpointsPurged  int // states reclaimed by the purging rule
	MaxLiveCheckpoints int // storage high-water mark (retained states)
	MessagesSent       int
	MessagesReceived   int
	Rollbacks          int // times this process was rolled back
	ATFailures         int // acceptance-test failures observed
	ConversationWait   int // steps other processes ran while this one waited at test lines
}

// Metrics is the system-wide result of a run.
type Metrics struct {
	Procs           []ProcStats
	Recoveries      int // system-level recovery actions
	MessagesPurged  int // orphan messages discarded during rollbacks
	MessagesSent    int
	DominoToStart   int // recoveries that pushed some process back to its start
	DeepestRollback int // largest per-recovery work-unit distance observed
}

// TotalWorkDiscarded sums rollback losses over processes.
func (m Metrics) TotalWorkDiscarded() int {
	t := 0
	for _, p := range m.Procs {
		t += p.WorkDiscarded
	}
	return t
}

// TotalRPs sums proper recovery points over processes.
func (m Metrics) TotalRPs() int {
	t := 0
	for _, p := range m.Procs {
		t += p.RPsSaved
	}
	return t
}

// TotalPRPs sums pseudo recovery points over processes.
func (m Metrics) TotalPRPs() int {
	t := 0
	for _, p := range m.Procs {
		t += p.PRPsSaved
	}
	return t
}
