package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// provenance records where a report's numbers came from, so that a number
// is never compared with one taken on another machine or commit unawares.
type provenance struct {
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Time       string  `json:"time"`
}

func collectProvenance(seed uint64, seconds float64) provenance {
	p := provenance{
		Commit: "unknown", Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPU: cpuModel(), Seed: seed, Seconds: seconds, Time: time.Now().UTC().Format(time.RFC3339),
	}
	// `go build` stamps the VCS state into the binary when the source is in
	// a git checkout; outside one (and under `go run`) the commit is unknown.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report is one invocation: the runs it made of each selected workload,
// untraced, traced or both, with provenance. It is the unit -compare reads
// and HISTORY.jsonl keeps one of per line.
type report struct {
	Provenance provenance       `json:"provenance"`
	Workloads  []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name          string     `json:"name"`
	Deterministic bool       `json:"deterministic"`
	Params        params     `json:"params"`
	Untraced      *runReport `json:"untraced"`
	Traced        *runReport `json:"traced"`
}

func writeReport(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	return nil
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// appendHistory appends the report as one line; the file is append-only, so
// a baseline is never overwritten by the run that should be compared to it.
func appendHistory(path string, rep *report) (err error) {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("history: %w", cerr)
		}
	}()
	if _, err := f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("history: %w", err)
	}
	return nil
}

// verdict judges one end-to-end metric of one workload: candidate b against
// baseline a. exact is set for what a deterministic workload must reproduce
// bit for bit on the same seed: there any change at all, better or worse, is
// a regression. A metric with an absolute tolerance may worsen by that much.
// Any other is held to its bound, and a pair whose own round-to-round spread
// exceeds the bound cannot resolve a change of that size either way.
func verdict(def metricDef, a, b metricValue, exact bool) (worse float64, v string) {
	if a.Value == 0 {
		return 0, "unresolved"
	}
	diff := b.Value - a.Value
	if def.better == "higher" {
		diff = -diff
	}
	worse = diff / a.Value
	switch {
	case exact:
		if diff != 0 {
			return worse, "regressed"
		}
	case def.abs > 0:
		if diff > def.abs {
			return worse, "regressed"
		}
	case a.Spread > def.bound || b.Spread > def.bound:
		return worse, "unresolved"
	case worse > def.bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareMode prints, per workload × end-to-end metric, both values, the
// ratio with its base, the spreads and sample counts, and the verdict. It
// fails when anything regressed, and a workload or metric of the baseline
// that the candidate does not report has regressed.
func compareMode(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two report files: baseline, candidate")
	}
	a, err := readReport(args[0])
	if err != nil {
		return err
	}
	b, err := readReport(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("baseline  %s: commit %s go %s gomaxprocs %d cpu %q seed %d\n", args[0], a.Provenance.Commit, a.Provenance.Go, a.Provenance.GOMAXPROCS, a.Provenance.CPU, a.Provenance.Seed)
	fmt.Printf("candidate %s: commit %s go %s gomaxprocs %d cpu %q seed %d\n", args[1], b.Provenance.Commit, b.Provenance.Go, b.Provenance.GOMAXPROCS, b.Provenance.CPU, b.Provenance.Seed)
	sameSeed := a.Provenance.Seed == b.Provenance.Seed
	compared, regressed := 0, 0
	for _, wa := range a.Workloads {
		if wa.Untraced == nil {
			continue
		}
		compared++
		var ub *runReport
		for _, wb := range b.Workloads {
			if wb.Name == wa.Name {
				ub = wb.Untraced
			}
		}
		if ub == nil {
			fmt.Printf("\n%s: no untraced run in the candidate: regressed\n", wa.Name)
			regressed++
			continue
		}
		ua := wa.Untraced
		exact := wa.Deterministic && sameSeed
		fmt.Printf("\n%s  (latency samples/round: %d vs %d)\n", wa.Name, ua.LatencySamples, ub.LatencySamples)
		fmt.Printf("   %-22s %13s %13s %-6s %-22s %-14s %-8s %s\n", "metric", "baseline", "candidate", "unit", "candidate/baseline", "spread a / b", "rounds", "verdict")
		for _, def := range endToEnd {
			va, vb := ua.Metrics[def.name], ub.Metrics[def.name]
			if _, ok := ub.Metrics[def.name]; !ok {
				fmt.Printf("   %-22s %13.6g %13s %-6s missing from the candidate: regressed\n", def.name, va.Value, "-", def.unit)
				regressed++
				continue
			}
			exactMetric := exact && strings.HasPrefix(def.name, "awe_")
			worse, v := verdict(def, va, vb, exactMetric)
			if v == "regressed" {
				regressed++
			}
			ratio := 0.0
			if va.Value != 0 {
				ratio = vb.Value / va.Value
			}
			fmt.Printf("   %-22s %13.6g %13.6g %-6s %-22s %-14s %-8s %s (worse by %+.1f%%, %s)\n",
				def.name, va.Value, vb.Value, def.unit,
				fmt.Sprintf("%.4f of %.6g", ratio, va.Value),
				fmt.Sprintf("%.1f%% / %.1f%%", va.Spread*100, vb.Spread*100),
				fmt.Sprintf("%d/%d", va.N, vb.N), v, worse*100, allowance(def, exactMetric))
		}
		if ua.LatencyTailPercentile > 0 {
			fmt.Printf("   %-22s %13.6g %13.6g ms     (p%g / p%g)\n", "task_latency_tail_ms",
				ua.LatencyTailMS, ub.LatencyTailMS, ua.LatencyTailPercentile, ub.LatencyTailPercentile)
		}
		if exact {
			names := make([]string, 0, len(ua.Exact))
			for name := range ua.Exact {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				va, vb := ua.Exact[name], ub.Exact[name]
				v := "ok"
				if _, ok := ub.Exact[name]; !ok || va != vb {
					v = "regressed"
					regressed++
				}
				fmt.Printf("   %-22s %13.6g %13.6g        exact count: %s\n", name, va, vb, v)
			}
		}
		if ub.Failed > ua.Failed {
			fmt.Printf("   op failures rose: %d of %d -> %d of %d: regressed\n", ua.Failed, ua.Attempted, ub.Failed, ub.Attempted)
			regressed++
		}
	}
	if compared == 0 {
		return fmt.Errorf("%s holds no untraced run to compare with", args[0])
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}

// allowance words the rule verdict applied to a metric.
func allowance(def metricDef, exact bool) string {
	switch {
	case exact:
		return "exact"
	case def.abs > 0:
		return fmt.Sprintf("allowed %g", def.abs)
	}
	return fmt.Sprintf("bound %g%%", def.bound*100)
}
