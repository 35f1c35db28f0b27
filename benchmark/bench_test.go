package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesCode pins BENCHMARK.json to the lists the binary
// reports from: a metric or workload renamed on one side only fails here.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the binary has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the binary %q / %q", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the binary has %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := metricDef{m.EndToEnd[i].Name, m.EndToEnd[i].Unit, m.EndToEnd[i].Better, m.EndToEnd[i].Bound}
		if got != d {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the binary %+v", i, got, d)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the binary has %d", len(m.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if m.PerLayer[i].Name != d.Name || m.PerLayer[i].Unit != d.Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], the binary %s [%s]", i, m.PerLayer[i].Name, m.PerLayer[i].Unit, d.Name, d.Unit)
		}
	}
	if sc, _ := scaleByName("full"); m.RunSeconds != sc.seconds {
		t.Errorf("run_seconds %d differs from the full scale's default window of %d s", m.RunSeconds, sc.seconds)
	}
}

// TestOracleCountsDroppedAndCorruptedVerdicts drops one verdict, flips one
// byte of another and adds a stray one, and expects each to be counted.
func TestOracleCountsDroppedAndCorruptedVerdicts(t *testing.T) {
	ref := &reference{digests: make(map[layerSpec]digest)}
	specs := []string{"spec00", "spec01", "spec02"}
	for layer := 1; layer <= 3; layer++ {
		for i, s := range specs {
			ref.digests[layerSpec{layer, s}] = digest{byte(layer), byte(i), 7}
		}
	}
	attempted := map[string]int{"b0": 2, "b1": 3}
	store := make(map[string][]byte)
	for job, n := range attempted {
		for k, d := range ref.digests {
			if k.layer <= n {
				store[verdictKey(job, k.layer, k.specimen)] = append([]byte(nil), d[:]...)
			}
		}
	}
	scan := func(fn func(string, []byte) bool) error {
		for k, v := range store {
			if !fn(k, v) {
				break
			}
		}
		return nil
	}

	vc, err := checkVerdicts(ref, attempted, scan)
	if err != nil {
		t.Fatal(err)
	}
	if vc.missing+vc.mismatch+vc.extra != 0 || len(vc.badLayers) != 0 {
		t.Fatalf("clean store reported %+v", vc)
	}

	delete(store, verdictKey("b1", 3, "spec01"))
	store[verdictKey("b0", 1, "spec02")][2] ^= 0x01
	store[verdictKey("b0", 3, "spec00")] = []byte("beyond what b0 attempted")
	vc, err = checkVerdicts(ref, attempted, scan)
	if err != nil {
		t.Fatal(err)
	}
	if vc.missing != 1 || vc.mismatch != 1 || vc.extra != 1 {
		t.Fatalf("got missing %d mismatch %d extra %d, want 1 each", vc.missing, vc.mismatch, vc.extra)
	}
	want := map[string]bool{"b1/0003": true, "b0/0001": true}
	if !reflect.DeepEqual(vc.badLayers, want) {
		t.Fatalf("bad layers %v, want %v", vc.badLayers, want)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("got %v %v %v", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 1.005, c * 0.995} }
	wide := func(c float64) []float64 { return []float64{c * 0.7, c, c * 1.3, c * 0.8, c * 1.2, c} }
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"slower beyond bound", lower, tight(100), tight(120), verdictWorse},
		{"slower within bound", lower, tight(100), tight(105), verdictWithin},
		{"faster", lower, tight(100), tight(50), verdictWithin},
		{"throughput down", higher, tight(100), tight(80), verdictWorse},
		{"throughput up", higher, tight(100), tight(130), verdictWithin},
		{"too noisy to tell", lower, wide(100), tight(150), verdictUnresolved},
	} {
		if got, _ := judge(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: got %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFilesFailsOnWorseAndOnMoreFailures(t *testing.T) {
	make1 := func(p50 float64, failed int) resultFile {
		rf := resultFile{Workloads: make(map[string]*workloadResult)}
		for _, w := range workloads {
			wr := &workloadResult{Attempted: 100, Failed: failed, EndToEnd: make(map[string]*samples)}
			for _, d := range endToEnd {
				v := 10.0
				if d.Name == "layer_latency_p50_ms" {
					v = p50
				}
				wr.EndToEnd[d.Name] = &samples{Unit: d.Unit, Values: []float64{v, v * 1.01, v * 0.99, v, v * 1.005}}
			}
			rf.Workloads[w.name] = wr
		}
		return rf
	}
	dir := t.TempDir()
	write := func(name string, rf resultFile) string {
		raw, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", make1(50, 0))
	var out bytes.Buffer
	if err := compareFiles(&out, base, write("same.json", make1(51, 0))); err != nil {
		t.Fatalf("equal sets compared as %v:\n%s", err, out.String())
	}
	if strings.Contains(out.String(), verdictWorse) || !strings.Contains(out.String(), verdictWithin) {
		t.Fatalf("unexpected report:\n%s", out.String())
	}
	if err := compareFiles(&out, base, write("slow.json", make1(70, 0))); err != errWorse {
		t.Fatalf("slower set compared as %v", err)
	}
	if err := compareFiles(&out, base, write("broken.json", make1(50, 2))); err != errWorse {
		t.Fatalf("set with more failures compared as %v", err)
	}
}

// TestSmoke runs every workload through the real binaries at smoke scale,
// untraced and traced, and requires each run to verify against the oracle
// and to print exactly the metrics BENCHMARK.json names, each once, with
// its unit.
func TestSmoke(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not available")
	}
	m := readManifest(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "benchmark")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	broker, err := buildBroker(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Workloads {
		for trace, want := range map[string]map[string]string{"0": {}, "1": {}} {
			if trace == "0" {
				for _, d := range m.EndToEnd {
					want[d.Name] = d.Unit
				}
			} else {
				for _, d := range m.PerLayer {
					want[d.Name] = d.Unit
				}
			}
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				stdout := runSmoke(t, bin, dir, "-workload", w.Name, "-seed", "7", "-trace", trace,
					"-scale", "smoke", "-broker-bin", broker)
				lines := strings.Split(strings.TrimSpace(stdout), "\n")
				var res runResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, stdout)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("run did not verify: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing from the result", name)
						continue
					}
					if got.Unit != unit {
						t.Errorf("metric %s has unit %q, want %q", name, got.Unit, unit)
					}
					printed := 0
					for _, line := range lines[:len(lines)-1] {
						if f := strings.Fields(line); len(f) == 3 && f[0] == name && f[2] == unit {
							printed++
						}
					}
					if printed != 1 {
						t.Errorf("metric %s printed %d times with its unit, want once", name, printed)
					}
				}
			})
		}
	}
}

// runSmoke runs the benchmark binary in its own process group with dir as
// working directory, so a failure or a timeout takes the broker and worker
// it spawned down with it.
func runSmoke(t *testing.T, bin, dir string, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		if cmd.Process != nil {
			_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		}
		t.Fatalf("benchmark %v: %v\nstdout:\n%s\nstderr:\n%s", args, err, stdout.String(), stderr.String())
	}
	return stdout.String()
}
