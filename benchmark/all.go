package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// resultFile is what the all-workloads mode writes and -compare reads: the
// samples of every end-to-end metric per workload, the per-layer metrics
// and budget table of one traced run, and enough about the machine and the
// settings to tell whether two files are comparable.
type resultFile struct {
	Meta      resultMeta                 `json:"meta"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type resultMeta struct {
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NProc      int            `json:"nproc"`
	Scale      string         `json:"scale"`
	Seed       int64          `json:"first_seed"`
	Runs       int            `json:"runs"`
	Seconds    int            `json:"seconds"`
	LiveRate   float64        `json:"live_rate_layers_per_s"`
	Inflight   int            `json:"replay_inflight"`
	Rings      map[string]int `json:"ring_layers"`
	When       string         `json:"when"`
}

type workloadResult struct {
	Why       string `json:"why"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// EndToEnd holds one value per run, in run order; its length is the
	// metric's sample count.
	EndToEnd map[string]*samples `json:"end_to_end"`
	PerLayer map[string]*samples `json:"per_layer"`
	Budget   *budget             `json:"budget,omitempty"`
}

type samples struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// runAll measures every workload the way the driver does — each run a
// fresh process of this binary — o.runs times with consecutive seeds, then
// once traced, prints every metric and stores the result file.
func runAll(o options) error {
	sc, err := scaleByName(o.scale)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	brokerBin := o.brokerBin
	if brokerBin == "" {
		if brokerBin, err = buildBroker(filepath.Join(buildDir, "bin")); err != nil {
			return err
		}
	}
	seconds := o.seconds
	if seconds <= 0 {
		seconds = sc.seconds
	}
	rf := resultFile{
		Meta: resultMeta{
			Commit: gitCommit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			NProc: runtime.NumCPU(), Scale: sc.name, Seed: o.seed, Runs: o.runs, Seconds: seconds,
			LiveRate: liveRate, Inflight: replayInflight, Rings: make(map[string]int),
			When: time.Now().UTC().Format(time.RFC3339),
		},
		Workloads: make(map[string]*workloadResult),
	}
	failed := false
	for _, wl := range workloads {
		wr := &workloadResult{Why: wl.why, EndToEnd: make(map[string]*samples), PerLayer: make(map[string]*samples)}
		rf.Workloads[wl.name] = wr
		rf.Meta.Rings[wl.name] = makePlan(wl, sc, seconds).ring
		one := func(seed int64, trace int, into map[string]*samples) error {
			args := []string{"-workload", wl.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(trace), "-scale", sc.name, "-broker-bin", brokerBin}
			fmt.Fprintf(os.Stderr, "== %s seed %d trace %d\n", wl.name, seed, trace)
			res, err := runChild(self, args)
			if err != nil {
				return err
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for name, m := range res.Metrics {
				if into[name] == nil {
					into[name] = &samples{Unit: m.Unit}
				}
				into[name].Values = append(into[name].Values, m.Value)
			}
			return nil
		}
		for i := 0; i < o.runs; i++ {
			if err := one(o.seed+int64(i), 0, wr.EndToEnd); err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
		}
		if err := one(o.seed, 1, wr.PerLayer); err != nil {
			return fmt.Errorf("%s traced: %w", wl.name, err)
		}
		if raw, err := os.ReadFile(filepath.Join(outDir, wl.name, "budget.json")); err == nil {
			var b budget
			if json.Unmarshal(raw, &b) == nil {
				wr.Budget = &b
			}
		}
		failed = failed || wr.Failed > 0
		printWorkload(wl.name, wr)
	}
	out := o.out
	if out == "" {
		out = filepath.Join(outDir, "result.json")
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if failed {
		return errIncorrect
	}
	return nil
}

// runChild runs one measured run as a child process, passes its report
// through and parses the JSON object on its last line. A run that failed
// the oracle still yields its result; anything else is an error.
func runChild(self string, args []string) (runResult, error) {
	var res runResult
	var stdout bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return res, runErr
		}
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

func printWorkload(name string, wr *workloadResult) {
	fmt.Printf("\n%s  (attempted %d, failed %d)\n", name, wr.Attempted, wr.Failed)
	for _, def := range endToEnd {
		if s := wr.EndToEnd[def.Name]; s != nil {
			q1, q2, q3 := quartiles(s.Values)
			fmt.Printf("  %-42s %14.4f %-6s (q1 %.4f q3 %.4f, n=%d)\n", def.Name, q2, s.Unit, q1, q3, len(s.Values))
		}
	}
	for _, def := range perLayer {
		if s := wr.PerLayer[def.Name]; s != nil && len(s.Values) > 0 {
			fmt.Printf("  %-42s %14.4f %s\n", def.Name, s.Values[0], s.Unit)
		}
	}
	if wr.Budget != nil {
		wr.Budget.print(os.Stdout)
	}
}

// gitCommit names the measured commit when the checkout is a git
// repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
