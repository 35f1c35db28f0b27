package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"strata/internal/kvstore"
)

// buildDir is the benchmark's scratch root inside the checkout: built
// binaries, and one directory of stores and logs per run (removed when the
// run ends). outDir receives what a run leaves for a reader.
const (
	buildDir = ".bench_build"
	outDir   = "bench-out/benchmark"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the JSON object a measured run prints as its last line.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne performs one run of one workload: render the ring, get the
// oracle's answer, set the system up (several times; setup_s is the
// median), measure, stop everything, check every committed verdict against
// the oracle and print the metrics.
func runOne(o options) error {
	wl, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	sc, err := scaleByName(o.scale)
	if err != nil {
		return err
	}
	p := makePlan(wl, sc, o.seconds)
	traced := o.trace == 1

	workDir := filepath.Join(buildDir, "run", fmt.Sprintf("%s-%d", p.name, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	if os.Getenv("BENCH_KEEP_RUN") == "" {
		// Stores, logs and the children's output; kept on request for a
		// post-mortem.
		defer os.RemoveAll(workDir)
	}

	brokerBin := o.brokerBin
	if p.xproc && brokerBin == "" {
		if brokerBin, err = buildBroker(filepath.Join(buildDir, "bin")); err != nil {
			return err
		}
	}

	r, err := renderRing(p.layout, p.ring, o.seed)
	if err != nil {
		return err
	}
	ref, err := runOracle(p, r, workDir, traced)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}

	setup := func(dir string) (system, error) {
		if p.xproc {
			return setupXproc(p, r, dir, brokerBin, traced)
		}
		return setupInproc(p, r, dir)
	}
	var sys system
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		dir := filepath.Join(workDir, fmt.Sprintf("sys%d", i))
		start := time.Now()
		if sys, err = setup(dir); err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		if err := sys.warmup(); err != nil {
			sys.kill()
			return fmt.Errorf("warm-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			if _, err := sys.finish(); err != nil {
				sys.kill()
				return fmt.Errorf("tear-down %d: %w", i, err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}

	// A traced run measures an untraced and a traced half on the same
	// set-up; their difference is the tracing overhead.
	d := time.Duration(p.seconds) * time.Second
	halves := []bool{false}
	if traced {
		d /= 2
		halves = []bool{false, true}
	}
	for _, on := range halves {
		if err := sys.window(d, on); err != nil {
			sys.kill()
			return fmt.Errorf("measured window: %w", err)
		}
	}
	fin, err := sys.finish()
	if err != nil {
		sys.kill()
		return err
	}

	check, rb, err := readBack(fin.verdictDir, ref, fin.attempted, traced)
	if err != nil {
		return fmt.Errorf("read back verdicts: %w", err)
	}
	res := runResult{Metrics: make(map[string]metricValue)}
	for _, n := range fin.attempted {
		res.Attempted += n
	}
	res.Failed = len(check.badLayers) + check.extra + int(fin.worker.PublishErrors)
	for _, w := range fin.windows {
		res.Failed += w.timeouts + int(w.host.CommitErrors)
		for _, l := range w.host.LatenciesMS {
			if l > ms(qos) {
				res.Failed++
			}
		}
	}
	res.Correct = res.Failed == 0
	if res.Attempted < 1 {
		return fmt.Errorf("no layer was attempted")
	}

	var values map[string]float64
	defs := endToEnd
	if traced {
		defs = perLayer
		pr, err := runProbes(p, r, ref, filepath.Join(workDir, fmt.Sprintf("sys%d", setupRepeats-1)))
		if err != nil {
			return fmt.Errorf("stage probe: %w", err)
		}
		var b budget
		values, b = perLayerValues(p, r, ref, fin, pr, rb)
		if err := writeTrace(p.name, fin.spans, b); err != nil {
			return err
		}
		b.print(os.Stdout)
	} else {
		values = endToEndValues(fin.windows[0], setups)
		if lag := percentile(fin.windows[0].sendLagMS, 0.95); lag > 5 {
			fmt.Fprintf(os.Stderr, "benchmark: INVALID open-loop run: generator lag p95 %.2f ms > 5 ms\n", lag)
		}
	}
	for _, def := range defs {
		v, ok := values[def.Name]
		if !ok {
			return fmt.Errorf("metric %s was not computed", def.Name)
		}
		res.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
		fmt.Printf("%-44s %16.6f %s\n", def.Name, v, def.Unit)
	}
	if !res.Correct {
		fmt.Printf("FAILED: %d of %d layers (missing %d, mismatching %d, extra %d verdicts)\n",
			res.Failed, res.Attempted, check.missing, check.mismatch, check.extra)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// endToEndValues computes the user-visible metrics of an untraced window.
func endToEndValues(w windowReport, setups []float64) map[string]float64 {
	layers := float64(w.host.Layers)
	v := map[string]float64{
		"setup_s":              median(setups),
		"layer_latency_p50_ms": percentile(w.host.LatenciesMS, 0.50),
		"layer_latency_p95_ms": percentile(w.host.LatenciesMS, 0.95),
	}
	if w.host.WindowS > 0 {
		v["images_per_s"] = layers / w.host.WindowS
	}
	if layers > 0 {
		v["cpu_s_per_layer"] = w.cpuS / layers
		v["alloc_mb_per_layer"] = w.allocMB / layers
	}
	return v
}

// readBackStats are the kvstore read-side numbers taken while checking.
type readBackStats struct {
	scanMS        float64
	cacheHitRatio float64
}

// readBack reopens the store the run committed to — after every process
// that wrote it has exited — and checks its verdicts against the oracle.
// With probe set it also flushes the recovered memtable and looks every
// verdict up once, so the block cache's hit ratio is on record.
func readBack(dir string, ref *reference, attempted map[string]int, probe bool) (verdictCheck, readBackStats, error) {
	var rb readBackStats
	db, err := kvstore.Open(dir)
	if err != nil {
		return verdictCheck{}, rb, err
	}
	defer db.Close()
	var keys [][]byte
	start := time.Now()
	check, err := checkVerdicts(ref, attempted, func(fn func(key string, val []byte) bool) error {
		return db.ScanPrefix([]byte("verdict/"), func(k, v []byte) bool {
			if probe {
				keys = append(keys, append([]byte(nil), k...))
			}
			return fn(string(k), v)
		})
	})
	rb.scanMS = ms(time.Since(start))
	if err != nil || !probe {
		return check, rb, err
	}
	if err := db.Flush(); err != nil {
		return check, rb, err
	}
	for _, k := range keys {
		if _, err := db.Get(k); err != nil {
			return check, rb, err
		}
	}
	if st := db.Stats(); st.BlockCacheHits+st.BlockCacheMisses > 0 {
		rb.cacheHitRatio = float64(st.BlockCacheHits) / float64(st.BlockCacheHits+st.BlockCacheMisses)
	}
	return check, rb, nil
}

// writeTrace stores a traced run's spans and budget table for a reader.
func writeTrace(workload string, spans []span, b budget) error {
	dir := filepath.Join(outDir, workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, v := range map[string]any{"spans.json": spans, "budget.json": b} {
		raw, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}
