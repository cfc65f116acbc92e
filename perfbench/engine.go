package main

import (
	"fmt"

	"mood"
	"mood/internal/attack"
	"mood/internal/core"
	"mood/internal/lppm"
	"mood/internal/metrics"
	"mood/internal/service"
	"mood/internal/trace"
)

// The real engine is built the way cmd/moodserver builds it: a
// mood.Pipeline seeded with the run's seed, a Protector adapter and a
// Retrainer that retrains on the initial background merged with the
// upload history. A traced run builds the same engine from the same
// public parts as mood.NewPipeline, so its mechanisms, attacks and
// utility can be wrapped; the benchmark checks that both publish
// exactly the same output.

// pipelineProtector adapts the public Pipeline to service.Protector.
type pipelineProtector struct{ p *mood.Pipeline }

func (pp pipelineProtector) Protect(t mood.Trace) (mood.Result, error) { return pp.p.Protect(t) }

// pipelineRetrainer is cmd/moodserver's retrainer.
type pipelineRetrainer struct {
	base    *mood.Pipeline
	initial []mood.Trace
}

func (rt *pipelineRetrainer) Retrain(history []mood.Trace) (service.Protector, service.Auditor, error) {
	p, err := rt.base.Retrain(mergeBackground(rt.initial, history))
	if err != nil {
		return nil, nil, err
	}
	return pipelineProtector{p}, p, nil
}

func mergeBackground(initial, history []trace.Trace) []trace.Trace {
	merged := make([]trace.Trace, 0, len(initial)+len(history))
	merged = append(merged, initial...)
	merged = append(merged, history...)
	return mood.NewDataset("background", merged).Traces
}

// engineKit is one trained engine as the service consumes it.
type engineKit struct {
	protector service.Protector
	retrainer service.Retrainer
	// auditor judges published pieces against the engine's attacks.
	auditor service.BatchAuditor
	// protect runs the engine on one trace outside the service.
	protect func(trace.Trace) (core.Result, error)
	// protectDataset is the offline release path.
	protectDataset func(trace.Dataset) ([]core.Result, error)
}

// newEngine trains the real engine on background. With a recorder it
// is assembled from wrapped parts; without one it is a mood.Pipeline.
func newEngine(rec *recorder, background []trace.Trace, seed uint64) (engineKit, error) {
	if rec == nil {
		p, err := mood.NewPipeline(background, mood.WithSeed(seed))
		if err != nil {
			return engineKit{}, fmt.Errorf("training the engine: %w", err)
		}
		return engineKit{
			protector:      pipelineProtector{p},
			retrainer:      &pipelineRetrainer{base: p, initial: background},
			auditor:        p,
			protect:        p.Protect,
			protectDataset: p.ProtectDataset,
		}, nil
	}
	e, atks, err := tracedEngine(rec, background, seed)
	if err != nil {
		return engineKit{}, err
	}
	return engineKit{
		protector: tracedProtector{rec: rec, next: e},
		retrainer: tracedRetrainer{rec: rec, next: partsRetrainer{rec: rec, initial: background, seed: seed}},
		auditor:   atks,
		protect:   e.Protect,
	}, nil
}

// tracedEngine mirrors mood.NewPipeline with default options — HMC →
// Geo-I → TRL, AP + POI + PIT trained on background, STD utility —
// with every part wrapped.
func tracedEngine(rec *recorder, background []trace.Trace, seed uint64) (*core.Engine, attack.Set, error) {
	hmc, err := lppm.NewHMC(0, background)
	if err != nil {
		return nil, nil, fmt.Errorf("building HMC: %w", err)
	}
	atks := attack.Set{attack.NewAP(), attack.NewPOIAttack(), attack.NewPIT()}
	if err := attack.TrainAll(atks, background); err != nil {
		return nil, nil, err
	}
	mechs := []lppm.Mechanism{
		tracedMechanism{rec: rec, span: "lppm.hmc", m: hmc},
		tracedMechanism{rec: rec, span: "lppm.geoi", m: lppm.GeoI{Epsilon: lppm.DefaultEpsilon}},
		tracedMechanism{rec: rec, span: "lppm.trl", m: lppm.TRL{Radius: lppm.DefaultTRLRadius, NumAssisted: 3}},
	}
	wrapped := attack.Set{
		tracedAttack{rec: rec, span: "attack.ap", a: atks[0]},
		tracedAttack{rec: rec, span: "attack.poi", a: atks[1]},
		tracedAttack{rec: rec, span: "attack.pit", a: atks[2]},
	}
	return &core.Engine{
		LPPMs:   mechs,
		Attacks: wrapped,
		Utility: tracedUtility{rec: rec, u: metrics.STDUtility{}},
		Seed:    seed,
	}, atks, nil
}

// partsRetrainer is pipelineRetrainer for a traced engine.
type partsRetrainer struct {
	rec     *recorder
	initial []trace.Trace
	seed    uint64
}

func (rt partsRetrainer) Retrain(history []trace.Trace) (service.Protector, service.Auditor, error) {
	e, atks, err := tracedEngine(rt.rec, mergeBackground(rt.initial, history), rt.seed)
	if err != nil {
		return nil, nil, err
	}
	return tracedProtector{rec: rt.rec, next: e}, atks, nil
}

// mutatingProtector lets the benchmark's own tests corrupt what the
// engine returns, to prove the output check catches it.
type mutatingProtector struct {
	next   service.Protector
	mutate func(*core.Result)
}

func (m mutatingProtector) Protect(t trace.Trace) (core.Result, error) {
	res, err := m.next.Protect(t)
	if err == nil {
		m.mutate(&res)
	}
	return res, err
}
