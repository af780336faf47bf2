// Package core implements the exact MaMoRL solver of Section 3: the
// Teammate Module (TMM, Equation 5), the Learning Module (LM, Equation 6)
// and the Action Selection Module (ASM, Equations 7-8), backed by the P and
// Q tables whose sizes Lemmata 1 and 2 characterize.
//
// The exact solver is deliberately table-based and therefore only tractable
// on small instances — that intractability is itself one of the paper's
// results (Table 6). NewPlanner refuses instances whose theoretical table
// footprint exceeds the configured memory budget, reproducing the paper's
// N/A rows; the function-approximation planners in internal/approx exist to
// cover everything larger.
package core

import (
	"fmt"

	"github.com/routeplanning/mamorl/internal/trace"
)

// Config holds MaMoRL's hyperparameters. Zero values select the defaults
// used by the paper's worked example (Section 3.2) and Table 4.
type Config struct {
	// Alpha is the Q-learning rate α of Equation 6. Default 0.9.
	Alpha float64
	// Gamma is the discount factor γ of Equation 6. Default 0.8.
	Gamma float64
	// Beta is the TMM learning rate β of Equation 5. Default 0.3.
	Beta float64
	// IterT is the iteration threshold T of Equations 5 and 8. Default 3.
	IterT int
	// Episodes is T_B, the number of training episodes. Default 10
	// (Table 4).
	Episodes int
	// Epsilon is the exploration rate during training episodes; evaluation
	// is always greedy. Default 0.2.
	Epsilon float64
	// Seed drives exploration randomness.
	Seed int64
	// MemoryBudgetBytes bounds the theoretical Q-table footprint (Lemma 2)
	// the solver will accept. The default is 128 GiB — the paper's i9
	// server — which reproduces Table 6's feasibility boundary: the
	// |V|=400/|N|=2 and |V|=200/|N|=2 rows (tens of GB) run, while
	// |V|=704/|N|=2 (hundreds of GB) and |V|=400/|N|=3 (thousands of TB)
	// fail with ErrMemoryBudget, the analogue of the paper's N/A rows.
	// (Our tables are sparse and use far less than the dense bound at run
	// time; the gate deliberately enforces the paper's dense-table
	// feasibility model.)
	MemoryBudgetBytes float64
	// Tracer, when non-nil, records one "train.episode" span per training
	// episode (epsilon, scalarized reward, cumulative |ΔQ|, steps), with
	// the episode's mission span nested under it. Not a hyperparameter:
	// tracing never influences learning.
	Tracer *trace.Tracer
	// OnEpisode, when non-nil, receives one EpisodeStats per training
	// episode as it completes — the learning-curve telemetry the
	// experiments suite exports and streams. Like Tracer, it is pure
	// observation: the callback can never influence learning.
	OnEpisode func(EpisodeStats)
}

// EpisodeStats is the learning-curve record of one training episode: the
// exploration rate in force, the scalarized joint reward accumulated over
// the episode, the cumulative and maximum per-update |ΔQ| (the convergence
// signals — a shrinking max ΔQ is what "the Q function settled" means),
// and the episode's mission length.
type EpisodeStats struct {
	Episode   int
	Epsilon   float64
	Reward    float64
	QDelta    float64
	MaxQDelta float64
	Steps     int
}

// Default hyperparameter values (Section 3.2's worked example and Table 4).
const (
	DefaultAlpha    = 0.9
	DefaultGamma    = 0.8
	DefaultBeta     = 0.3
	DefaultIterT    = 3
	DefaultEpisodes = 10
	DefaultEpsilon  = 0.2
	// DefaultMemoryBudgetBytes is 128 GiB (the paper's evaluation server).
	DefaultMemoryBudgetBytes = 128 << 30
)

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = DefaultAlpha
	}
	if c.Gamma == 0 {
		c.Gamma = DefaultGamma
	}
	if c.Beta == 0 {
		c.Beta = DefaultBeta
	}
	if c.IterT == 0 {
		c.IterT = DefaultIterT
	}
	if c.Episodes == 0 {
		c.Episodes = DefaultEpisodes
	}
	if c.Epsilon == 0 {
		c.Epsilon = DefaultEpsilon
	}
	if c.MemoryBudgetBytes == 0 {
		c.MemoryBudgetBytes = DefaultMemoryBudgetBytes
	}
	return c
}

// Validate rejects out-of-range hyperparameters.
func (c Config) Validate() error {
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("core: alpha %v outside [0,1]", c.Alpha)
	}
	if c.Gamma < 0 || c.Gamma >= 1 {
		return fmt.Errorf("core: gamma %v outside [0,1)", c.Gamma)
	}
	if c.Beta < 0 || c.Beta > 1 {
		return fmt.Errorf("core: beta %v outside [0,1]", c.Beta)
	}
	if c.Epsilon < 0 || c.Epsilon > 1 {
		return fmt.Errorf("core: epsilon %v outside [0,1]", c.Epsilon)
	}
	if c.IterT < 0 || c.Episodes < 0 {
		return fmt.Errorf("core: negative IterT/Episodes")
	}
	return nil
}
