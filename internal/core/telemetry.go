package core

import (
	"sort"
	"time"

	"strata/internal/telemetry"
)

// Collect implements telemetry.Collector for the whole deployment: one
// registration covers the shared key-value store, every live pipeline's
// per-operator stream metrics (labelled query=<pipeline>), and the
// manager's own supervision counters. The broker is registered separately
// by its owner (the manager never owns it).
func (m *Manager) Collect(w *telemetry.Writer) {
	m.mu.Lock()
	live := make([]*Pipeline, 0, len(m.pipelines))
	for _, p := range m.pipelines {
		live = append(live, p)
	}
	all := make([]*Pipeline, 0, len(m.pipelines)+len(m.terminal))
	all = append(all, live...)
	for _, p := range m.terminal {
		all = append(all, p)
	}
	terminalCount := len(m.terminal)
	m.mu.Unlock()

	w.Gauge("strata_manager_pipelines",
		"Deployed pipelines (running or restarting).", float64(len(live)))
	if m.overload != nil {
		m.overload.collect(w)
	}
	w.Gauge("strata_manager_pipelines_terminal",
		"Retired pipelines (completed, decommissioned, or failed).", float64(terminalCount))

	for _, p := range all {
		in := p.info()
		pl := telemetry.L("pipeline", in.Name)
		w.Gauge("strata_manager_pipeline_status",
			"Pipeline lifecycle state as a labelled flag (1 = current state).",
			1, pl, telemetry.L("status", in.Status.String()))
		w.Counter("strata_manager_pipeline_restarts_total",
			"Supervised restarts of the pipeline.", float64(in.Restarts), pl)
		w.Gauge("strata_manager_pipeline_uptime_seconds",
			"Seconds since the pipeline was deployed.", in.Uptime.Seconds(), pl)
	}

	m.store.Collect(w)
	for _, p := range live {
		p.Framework().Collect(w)
		if st := p.ckpt; st != nil {
			pl := telemetry.L("pipeline", p.name)
			w.Counter("strata_ckpt_total",
				"Checkpoint attempts (successful or failed).",
				float64(st.attempts.Load()), pl)
			w.Counter("strata_ckpt_failures_total",
				"Checkpoints that failed before committing their epoch.",
				float64(st.failures.Load()), pl)
			w.Counter("strata_ckpt_restores_total",
				"Pipeline (re)builds that restored state from a checkpoint.",
				float64(st.restores.Load()), pl)
			w.Gauge("strata_ckpt_last_epoch",
				"Epoch number of the most recent committed checkpoint.",
				float64(st.lastEpoch.Load()), pl)
			if ns := st.lastUnixNano.Load(); ns > 0 {
				w.Gauge("strata_ckpt_age_seconds",
					"Seconds since the most recent committed checkpoint.",
					time.Since(time.Unix(0, ns)).Seconds(), pl)
			}
			w.Histogram("strata_ckpt_duration_seconds",
				"Wall time of a checkpoint (quiesce through commit).",
				st.duration.Snapshot(), pl)
			w.Histogram("strata_ckpt_size_bytes",
				"State bytes written per checkpoint epoch.",
				st.size.Snapshot(), pl)
		}
	}
}

// PipelineDebug is the JSON shape served by /debug/pipelines (see
// telemetry.WithPipelines).
type PipelineDebug struct {
	Name        string    `json:"name"`
	Status      string    `json:"status"`
	Restarts    int       `json:"restarts"`
	Uptime      string    `json:"uptime"`
	Err         string    `json:"error,omitempty"`
	LastFailure time.Time `json:"last_failure,omitzero"`
}

// DebugPipelines summarizes every pipeline the manager knows about — live
// and terminal — for the /debug/pipelines endpoint. Wire it with
// telemetry.WithPipelines(manager.DebugPipelines).
func (m *Manager) DebugPipelines() any {
	m.mu.Lock()
	ps := make([]*Pipeline, 0, len(m.pipelines)+len(m.terminal))
	for _, p := range m.pipelines {
		ps = append(ps, p)
	}
	for _, p := range m.terminal {
		ps = append(ps, p)
	}
	m.mu.Unlock()

	out := make([]PipelineDebug, 0, len(ps))
	for _, p := range ps {
		in := p.info()
		d := PipelineDebug{
			Name:        in.Name,
			Status:      in.Status.String(),
			Restarts:    in.Restarts,
			Uptime:      in.Uptime.Round(time.Millisecond).String(),
			LastFailure: in.LastFailure,
		}
		if in.Err != nil {
			d.Err = in.Err.Error()
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
