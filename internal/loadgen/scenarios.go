package loadgen

import (
	"fmt"
	"sort"
)

// Scenarios maps the named presets cmd/moodload exposes. Each returns
// the Config for a given seed, population and round count; callers may
// tweak the result further.
var Scenarios = map[string]func(seed uint64, users, rounds int) Config{
	// steady-state: every user uploads once per round at a calm pace —
	// the baseline accounting drill.
	"steady": steadyScenario,
	// burst: each user fires several uploads per round from a wide
	// client pool with a heavy duplicate mix — backpressure, shedding
	// and idempotent replays under contention.
	"burst": func(seed uint64, users, rounds int) Config {
		return Config{
			Scenario:                  "burst",
			Seed:                      seed,
			Users:                     users,
			Rounds:                    rounds,
			Drift:                     0.2,
			MaxUploadsPerUserPerRound: 3,
			AsyncFraction:             0.4,
			RetryFraction:             0.3,
			InvalidFraction:           0.1,
			Workers:                   16,
		}
	},
	// drift-retrain: heavy mid-period behaviour drift with a retrain +
	// re-audit barrier after every round — the online §6 scenario. The
	// target server must be started with a retrainer.
	"drift-retrain": func(seed uint64, users, rounds int) Config {
		return Config{
			Scenario:        "drift-retrain",
			Seed:            seed,
			Users:           users,
			Rounds:          rounds,
			Drift:           0.6,
			AsyncFraction:   0.2,
			RetryFraction:   0.1,
			InvalidFraction: 0.05,
			RetrainEvery:    1,
			Workers:         4,
		}
	},
	// restart: steady traffic with a graceful close + WAL reboot fired
	// in the middle of a round. The Restart callback is wired by the harness
	// (cmd/moodload self-hosts; the e2e test swaps servers in-process).
	"restart": func(seed uint64, users, rounds int) Config {
		c := steadyScenario(seed, users, rounds)
		c.Scenario = "restart"
		c.RetryFraction = 0.2
		c.RestartAfterRound = (rounds + 1) / 2
		return c
	},
	// crash: like restart, but the mid-round teardown is a SIGKILL-style
	// stop — no drain, no snapshot — and the reboot replays the WAL. The
	// heavier retry/async mix maximises the traffic in flight at the
	// moment of death. The harness wires the callback to Host.Crash.
	"crash": func(seed uint64, users, rounds int) Config {
		c := steadyScenario(seed, users, rounds)
		c.Scenario = "crash"
		c.RetryFraction = 0.3
		c.AsyncFraction = 0.3
		c.RestartAfterRound = (rounds + 1) / 2
		return c
	},
	// cluster: the crash drill generalised to a sharded deployment —
	// three WAL nodes behind the rendezvous router, one of them killed
	// mid-round and rebooted only after the health checker marked it
	// down, so traffic genuinely rides the retryable failover window —
	// under the drift-retrain mix, so every barrier also exercises the
	// router's whole-cluster retrain fan-out. The harness wires the
	// callback to ClusterHost.FailoverOne and asserts the misroute
	// tripwire stayed at zero.
	"cluster": func(seed uint64, users, rounds int) Config {
		c := steadyScenario(seed, users, rounds)
		c.Scenario = "cluster"
		c.Drift = 0.6
		c.RetryFraction = 0.3
		c.AsyncFraction = 0.3
		c.RetrainEvery = 1
		c.RestartAfterRound = (rounds + 1) / 2
		return c
	},
}

func steadyScenario(seed uint64, users, rounds int) Config {
	return Config{
		Scenario:        "steady",
		Seed:            seed,
		Users:           users,
		Rounds:          rounds,
		Drift:           0.2,
		AsyncFraction:   0.2,
		RetryFraction:   0.1,
		InvalidFraction: 0.05,
		Workers:         4,
	}
}

// ScenarioNames lists the presets, sorted.
func ScenarioNames() []string {
	names := make([]string, 0, len(Scenarios))
	for n := range Scenarios {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Scenario resolves a preset by name.
func Scenario(name string, seed uint64, users, rounds int) (Config, error) {
	mk, ok := Scenarios[name]
	if !ok {
		return Config{}, fmt.Errorf("loadgen: unknown scenario %q (want one of %v)", name, ScenarioNames())
	}
	return mk(seed, users, rounds), nil
}
