// Command bench is this repository's benchmark: five named workloads over the
// whole request path, every output checked, every metric printed by name with
// its unit. BENCHMARK.json at the repository root declares the workloads, the
// metrics and their regression bounds; README.md in this directory explains
// the choices.
//
//	go run -C bench repro/bench -workload copy-stream -seed 1 -seconds 15 -trace 0
//
// runs one workload and prints one JSON object as its last line: end-to-end
// metrics with -trace 0, per-layer metrics with -trace 1. Without -workload it
// runs the whole suite and writes bench/out/results.json; -selfcheck runs the
// suite twice and compares the two against the declared bounds. Every
// workload execution happens in a fresh child process of this binary.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// spec is what the program reads of BENCHMARK.json.
type spec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json in the working directory or its parent (go
// run -C bench runs the program inside bench/) and returns the repository
// root beside it.
func loadSpec() (*spec, string, error) {
	for _, root := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, "", err
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &s, root, nil
	}
	return nil, "", errors.New("BENCHMARK.json not found in . or ..; run from the repository root with go run -C bench")
}

// The wire workloads. Fleet size 8 is a traffic dimension of the paper:
// coalescing needs at least two VPs per device.
var wireWorkloads = map[string]wireSpec{
	"coalesce-launch": {apps: []string{"matrixMul"}, vps: 8, scale: 1, devices: 1, launches: 10, reqPerSecond: 4500},
	"copy-stream":     {apps: []string{"vectorAdd"}, vps: 8, scale: 4, devices: 1, launches: 1, reqPerSecond: 2100},
	"farm-migrate":    {apps: mixApps, vps: 8, scale: 4, devices: 4, launches: 1, admission: true, migrateEvery: 1000, reqPerSecond: 5600},
}

func runWorkload(cfg config) (*outcome, error) {
	if ws, ok := wireWorkloads[cfg.workload]; ok {
		return runWire(ws, cfg)
	}
	switch cfg.workload {
	case "lockstep-timing":
		return runLockstep(cfg)
	case "emul-kpl":
		return runEmul(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload invocation prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultOf selects the declared metrics from an outcome. Every end-to-end
// metric must have been measured; a per-layer metric the workload does not
// exercise reads 0. A measured name that is not declared is a bug here.
func resultOf(o *outcome, declared []metricSpec, requireAll bool) (*result, error) {
	res := &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	known := map[string]bool{}
	for _, d := range declared {
		known[d.Name] = true
		v, ok := o.metrics[d.Name]
		if !ok && requireAll {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range o.metrics {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is measured but not declared in BENCHMARK.json", name)
		}
	}
	return res, nil
}

// environment is recorded with every run.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Reps       int     `json:"reps"`
}

func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit without running git (the driver's
// checkout is not a repository, where it reads "unknown").
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(h, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join(root, ".git", ref))
		if err != nil {
			return "unknown"
		}
		h = strings.TrimSpace(string(data))
	}
	return h
}

// defaultReps is how many fresh child processes share an untraced run's
// -seconds. The host's speed shifts by ±10 % for seconds at a time and each
// process draws its own memory layout, so one long run reads a few per cent
// off from the next; the median over several short ones does not.
const defaultReps = 10

func main() {
	workload := flag.String("workload", "", "run this one workload (empty = the whole suite)")
	seed := flag.Int64("seed", 1, "permutes VP→application deal, VP start order and the migration schedule")
	secs := flag.Float64("seconds", 0, "sizes the fixed work of a run: what takes this long on the reference box (0 = run_seconds from BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics with tracing off; 1 = per-layer metrics from a traced run")
	reps := flag.Int("reps", defaultReps, "child processes that share an untraced run's -seconds; their median is reported")
	selfcheck := flag.Bool("selfcheck", false, "suite mode: run the suite twice and compare the two against the bounds")
	isChild := flag.Bool("child", false, "internal: run the workload in this process and print its result")
	flag.Parse()

	// One generator process on at most four cores, so a result from a large
	// box stays comparable with one from CI.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(min(nproc, 4))

	sp, root, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *secs <= 0 {
		*secs = float64(sp.RunSeconds)
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	env := environment{NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: cpuModel(),
		Commit: commit(root), Seed: *seed, Seconds: *secs, Reps: max(*reps, 1)}

	switch {
	case *isChild:
		os.Exit(runChild(sp, config{workload: *workload, seed: *seed, seconds: *secs, trace: *trace == 1, outDir: outDir}))
	case *workload == "":
		os.Exit(runSuite(sp, env, outDir, *selfcheck))
	}
	envJSON, _ := json.Marshal(env)
	fmt.Printf("environment %s\n", envJSON)
	fmt.Println("simulated statistics are pinned bit-exact on lockstep-timing; the repository holds no hardware reference, so the model itself is unvalidated here")
	res, err := measure(sp, env, *workload, *trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	declared := sp.EndToEnd
	if *trace == 1 {
		declared = sp.PerLayer
	}
	printMetrics(*workload, declared, res)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runChild runs one workload in this process and prints its notes and, as the
// last line, its result.
func runChild(sp *spec, cfg config) int {
	o, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	declared := sp.PerLayer
	if !cfg.trace {
		declared = sp.EndToEnd
		o.metrics["peak_rss_mb"] = peakRSSMB()
	}
	res, err := resultOf(o, declared, !cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, n := range o.notes {
		fmt.Println(n)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printMetrics(workload string, declared []metricSpec, res *result) {
	for _, d := range declared {
		fmt.Printf("%-16s %-34s %14.6g %s\n", workload, d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Printf("%-16s %-34s %14.6g (%d failed of %d attempted)\n", workload, "fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
}

// child runs one workload in a fresh process of this binary, relays its notes
// and parses the result from its last line. A child that found a wrong output
// exits non-zero but still reports; one that printed no result is an error.
func child(workload string, env environment, trace int, seconds float64) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child", "-workload", workload, "-seed", fmt.Sprint(env.Seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Metrics == nil {
		return nil, fmt.Errorf("%s: child printed no result (%v)", workload, runErr)
	}
	for _, l := range lines[:len(lines)-1] {
		fmt.Printf("  %s\n", l)
	}
	return &res, nil
}

// measure produces one workload's result. Untraced, the work of env.Seconds
// is split over env.Reps fresh processes, each child's timings are scaled to
// reference host speed by the host index taken just before and after it (see
// hostindex.go), and each metric is the median over the children. Traced, one
// process does it all and the per-layer numbers are raw.
func measure(sp *spec, env environment, workload string, trace int) (*result, error) {
	if trace == 1 {
		return child(workload, env, 1, env.Seconds)
	}
	total := &result{Correct: true, Metrics: map[string]metricValue{}}
	values, raw := map[string][]float64{}, map[string][]float64{}
	var indices []float64
	before := hostIndex()
	for i := 0; i < env.Reps; i++ {
		r, err := child(workload, env, 0, env.Seconds/float64(env.Reps))
		if err != nil {
			return nil, err
		}
		after := hostIndex()
		idx := (before + after) / 2
		before = after
		indices = append(indices, idx)
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for name, v := range r.Metrics {
			values[name] = append(values[name], atReferenceSpeed(v.Value, v.Unit, idx))
			raw[name] = append(raw[name], v.Value)
		}
	}
	rawMedians := map[string]float64{}
	for name, vs := range raw {
		rawMedians[name] = median(vs)
	}
	rawJSON, _ := json.Marshal(rawMedians)
	fmt.Printf("as found (unscaled medians) %s\n", rawJSON)
	fmt.Printf("host index %.2f ms over the run (reference %.1f): timings are scaled by %.3f to reference host speed\n",
		median(indices), hostIndexRef, hostIndexRef/median(indices))
	for _, d := range sp.EndToEnd {
		total.Metrics[d.Name] = metricValue{Value: median(values[d.Name]), Unit: d.Unit}
	}
	return total, nil
}

// suiteRun is one workload's results in a pass over the suite.
type suiteRun struct {
	Workload  string             `json:"workload"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	FailRatio float64            `json:"fail_ratio"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
}

func runOnce(sp *spec, env environment) ([]suiteRun, bool) {
	ok := true
	var runs []suiteRun
	for _, w := range sp.Workloads {
		sr := suiteRun{Workload: w.Name, EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}
		declared := [][]metricSpec{sp.EndToEnd, sp.PerLayer}
		for trace, into := range []map[string]float64{sr.EndToEnd, sr.PerLayer} {
			r, err := measure(sp, env, w.Name, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				ok = false
				continue
			}
			printMetrics(w.Name, declared[trace], r)
			sr.Attempted += r.Attempted
			sr.Failed += r.Failed
			ok = ok && r.Correct
			for name, v := range r.Metrics {
				into[name] = v.Value
			}
		}
		sr.FailRatio = ratio(float64(sr.Failed), float64(sr.Attempted))
		runs = append(runs, sr)
	}
	return runs, ok
}

func runSuite(sp *spec, env environment, outDir string, selfcheck bool) int {
	envJSON, _ := json.Marshal(env)
	fmt.Printf("environment %s\n", envJSON)
	first, ok := runOnce(sp, env)
	doc := map[string]any{"environment": env, "runs": first}
	if selfcheck {
		second, ok2 := runOnce(sp, env)
		ok = ok && ok2
		doc["selfcheck_runs"] = second
		ok = compare(sp, first, second) && ok
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "results.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// compare prints, per (end-to-end metric, workload), how much worse the
// second suite run read than the first, beside the metric's bound. This is
// how a later issue sizes a claim: a difference the benchmark shows between
// two runs of the same code is not a gain.
func compare(sp *spec, first, second []suiteRun) bool {
	ok := true
	fmt.Printf("\nselfcheck: second run against first, same binary\n%-16s %-14s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for i, a := range first {
		b := second[i]
		for _, d := range sp.EndToEnd {
			x, y := a.EndToEnd[d.Name], b.EndToEnd[d.Name]
			worse := ratio(y-x, x)
			if d.Better == "higher" {
				worse = -worse
			}
			mark := ""
			if worse > d.Bound {
				mark, ok = "  EXCEEDS BOUND", false
			}
			fmt.Printf("%-16s %-14s %12.6g %12.6g %8.1f%% %6.0f%%%s\n", a.Workload, d.Name, x, y, 100*worse, 100*d.Bound, mark)
		}
		if a.FailRatio != b.FailRatio {
			fmt.Printf("%-16s %-14s %12.6g %12.6g  must be equal  EXCEEDS BOUND\n", a.Workload, "fail_ratio", a.FailRatio, b.FailRatio)
			ok = false
		}
		if x, y := a.PerLayer["hostgpu.sim_makespan_s"], b.PerLayer["hostgpu.sim_makespan_s"]; a.Workload == "lockstep-timing" && x != y {
			fmt.Printf("%-16s %-14s %12.6g %12.6g  must be equal  EXCEEDS BOUND\n", a.Workload, "sim_makespan_s", x, y)
			ok = false
		}
	}
	return ok
}
