// Package loadgen is the deterministic workload simulator of the MooD
// service tier: it generates seeded multi-user mobility workloads from
// internal/synth, drives them through the real HTTP middleware (the
// same wire protocol participants use), and checks accounting
// invariants over the server's published state.
//
// Everything about a workload is a pure function of its Config — the
// population, each user's per-round arrival process, the retry /
// duplicate / invalid-request mix, the shuffle order, and the retrain
// barriers — so a scenario run against a correct server produces an
// identical Report on every run: soak results diff cleanly across
// commits, and a reproduction of a failure is one seed away. Transient
// effects that depend on real scheduling (shed retries, backpressure
// waits) are logged but deliberately kept out of the Report.
//
// The harness follows the shape of reproducible middlebox benchmarks
// (mmb, arXiv:1904.11277): a generator with a fixed seed, a driver
// against the real service, and machine-checkable assertions instead
// of eyeballed throughput numbers.
package loadgen

import (
	"fmt"

	"mood/internal/clock"
	"mood/internal/eval"
	"mood/internal/synth"
	"mood/internal/trace"
)

// Config fully determines a workload.
type Config struct {
	// Scenario names the preset the config came from (informational,
	// echoed in the report).
	Scenario string
	// Seed drives the synthetic population, every arrival process and
	// the op shuffle.
	Seed uint64
	// Users is the population size (phone users in the synthetic city).
	Users int
	// Rounds is the number of publication rounds the test period is cut
	// into; each round is one barrier-synchronised wave of uploads.
	Rounds int
	// Drift is the fraction of users whose habits change mid-period
	// (the behaviour evolution dynamic protection exists for).
	Drift float64

	// MaxUploadsPerUserPerRound bounds the per-user arrival process:
	// each user splits their round chunk into 1..Max uploads (seeded
	// per user and round). Default 1.
	MaxUploadsPerUserPerRound int
	// AsyncFraction of uploads use ?async=1 + job polling.
	AsyncFraction float64
	// RetryFraction of uploads are immediately retried with the same
	// idempotency key and body; the reply must be a byte-identical
	// replay (sync) or the same job handle (async).
	RetryFraction float64
	// InvalidFraction adds deliberately malformed requests (bad JSON,
	// bad user IDs, bad async params, oversized keys); each must be
	// rejected with a 4xx and leave no trace in the accounting.
	InvalidFraction float64

	// RetrainEvery inserts a retrain + re-audit barrier after every
	// N-th round (0 = never). The target server must have a retrainer
	// configured.
	RetrainEvery int

	// Workers is the client-side concurrency (default 8). It changes
	// wall-clock time only, never the report.
	Workers int

	// RestartAfterRound, when > 0 and Restart is set, invokes Restart
	// concurrently with round RestartAfterRound's traffic — the
	// restart-under-load drill. The callback must bring the same
	// logical server back (graceful close + WAL reboot, or a crash and
	// replay); uploads racing it are
	// retried by the driver.
	RestartAfterRound int
	Restart           func() error

	// AuthToken, when set, authenticates every request.
	AuthToken string

	// Clock paces transient retries (default clock.System()). Like
	// Workers it affects wall-clock time only, never the report; a
	// Manual clock makes retry backoff steppable in virtual-time soaks.
	Clock clock.Clock
}

func (c *Config) fill() {
	if c.Users <= 0 {
		c.Users = 8
	}
	if c.Rounds <= 0 {
		c.Rounds = 3
	}
	if c.MaxUploadsPerUserPerRound <= 0 {
		c.MaxUploadsPerUserPerRound = 1
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Scenario == "" {
		c.Scenario = "custom"
	}
	if c.Clock == nil {
		c.Clock = clock.System()
	}
}

// Workload is the fully materialised input of a run: the synthetic
// background (what a self-hosted server trains its attacks on) and the
// publication rounds of raw per-user traces.
type Workload struct {
	Background trace.Dataset
	Rounds     []eval.Round
}

// Build generates the workload for cfg: a drifted synthetic city,
// split into the background half (attacker-side knowledge, engine
// training input) and publication rounds over the test half — the same
// carving the paper's dynamic experiment uses, so loadgen scenarios
// and eval.RunDynamic stress identical data shapes.
func Build(cfg Config) (Workload, error) {
	cfg.fill()
	sc := synth.MDCLike(synth.ScaleTiny, cfg.Seed)
	sc.NumUsers = cfg.Users
	// Two synthetic days per round: half the span becomes background,
	// the other half is carved into the publication rounds.
	sc.Days = 2 * cfg.Rounds
	if sc.Days < 4 {
		sc.Days = 4
	}
	if cfg.Drift > 0 {
		sc.DriftFraction = cfg.Drift
	}
	full, err := synth.Generate(sc)
	if err != nil {
		return Workload{}, fmt.Errorf("loadgen: generating population: %w", err)
	}
	bg, test := full.SplitTrainTest(0.5, 20)
	if test.NumUsers() == 0 {
		return Workload{}, fmt.Errorf("loadgen: no active users in the test period (users=%d days=%d)", cfg.Users, sc.Days)
	}
	rounds, err := eval.SplitRounds(test, cfg.Rounds)
	if err != nil {
		return Workload{}, fmt.Errorf("loadgen: %w", err)
	}
	return Workload{Background: bg, Rounds: rounds}, nil
}
