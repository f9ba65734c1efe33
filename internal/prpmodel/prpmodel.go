// Package prpmodel implements the Section 4 cost model of pseudo recovery
// points (PRPs). When process P_i establishes recovery point RP_i, every
// other process implants a PRP, so the pseudo recovery line
// (RP_i, PRP^i_1, …, PRP^i_{n−1}) always exists. The paper quantifies the
// price and the benefit:
//
//   - time overhead per recovery point: (n−1)·t_r, where t_r is the cost of
//     one state save;
//   - storage: n saved states per RP; old RPs and PRPs outside the current
//     pseudo recovery lines {PRL_i} can be purged;
//   - benefit: rollback distance is bounded by sup{y_1..y_n}, where y_i is
//     the interval between successive recovery points of P_i — instead of
//     the unbounded propagation of asynchronous RBs.
package prpmodel

import (
	"errors"
	"fmt"
	"math"

	"recoveryblocks/internal/synch"
)

// Config describes a PRP deployment.
type Config struct {
	Mu       []float64 // per-process RP rates μ_i
	SaveCost float64   // t_r: time to record one process state
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.Mu) == 0 {
		return errors.New("prpmodel: need at least one process")
	}
	for i, m := range c.Mu {
		if m <= 0 || math.IsNaN(m) || math.IsInf(m, 0) {
			return fmt.Errorf("prpmodel: μ_%d = %v must be positive and finite", i+1, m)
		}
	}
	if c.SaveCost < 0 {
		return errors.New("prpmodel: SaveCost must be nonnegative")
	}
	return nil
}

// N returns the number of processes.
func (c Config) N() int { return len(c.Mu) }

// TimeOverheadPerRP returns the paper's additional time overhead for every
// recovery point: (n−1)·t_r, the cost of implanting PRPs in the other
// processes.
func (c Config) TimeOverheadPerRP() float64 {
	return float64(c.N()-1) * c.SaveCost
}

// RPRate returns the total system rate of recovery-point establishment,
// Σ_i μ_i. Every such event triggers one full pseudo-recovery-line save.
func (c Config) RPRate() float64 {
	s := 0.0
	for _, m := range c.Mu {
		s += m
	}
	return s
}

// TimeOverheadRate returns the long-run fraction of each process's time
// spent recording states for other processes' recovery points: each of the
// Σμ_k RP events per unit time costs every *other* process t_r, so a given
// process pays t_r·(Σμ − μ_self); averaged over processes this is
// t_r·Σμ·(n−1)/n.
func (c Config) TimeOverheadRate() float64 {
	n := float64(c.N())
	return c.SaveCost * c.RPRate() * (n - 1) / n
}

// LiveStates returns the number of states that must be retained after
// purging: the paper keeps the pseudo recovery lines {PRL_i | i = 1..n}
// (each consisting of n states: RP_i plus n−1 PRPs) and notes that all older
// RPs and PRPs can be purged — so n² states bound the live store.
func (c Config) LiveStates() int { return c.N() * c.N() }

// RollbackDistanceBound returns the paper's bound on the rollback distance:
// E[sup{y_1..y_n}] where y_i ~ Exp(μ_i) is the inter-RP interval of P_i.
// (The same max-of-exponentials expectation as Section 3's E[Z]; the
// substrate is shared with package synch.)
func (c Config) RollbackDistanceBound() (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	return synch.MeanMax(c.Mu)
}

// MeanRollbackToPRL returns the expected rollback distance when a *local*
// error in P_i forces a restart from the pseudo recovery line anchored at
// P_i's latest RP: the error strikes uniformly within P_i's current inter-RP
// interval, so by the inspection paradox the time already elapsed since the
// last RP of P_i averages 1/μ_i (the backward recurrence time of a Poisson
// stream).
func (c Config) MeanRollbackToPRL(i int) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if i < 0 || i >= c.N() {
		return 0, fmt.Errorf("prpmodel: process %d out of range", i)
	}
	return 1 / c.Mu[i], nil
}
