package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynalloc/internal/metrics"
	"dynalloc/internal/report"
)

// dynalloc runs the command line in-process.
func dynalloc(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// mustRun runs the command line and fails the test unless it exits 0.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, out, errOut := dynalloc(args...)
	if code != 0 {
		t.Fatalf("dynalloc %s: exit %d\n%s", strings.Join(args, " "), code, errOut)
	}
	return out
}

func TestSubcommandsOnTinyInputs(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"figures", "-fig", "3"}, "Figure 3 — bucketing a 2000-record N(8,2) GB sample"},
		{[]string{"figures", "-fig", "4", "-tasks", "40", "-outdir", dir}, "wrote " + filepath.Join(dir, "fig4_bimodal.csv") + " (40 tasks)"},
		{[]string{"figures", "-table", "1", "-reps", "1"}, "Table I — mean time"},
		{[]string{"ablate", "-tasks", "40", "-j", "2"}, "Ablation — placement policy"},
		{[]string{"tracegen", "-workflow", "trimodal", "-tasks", "50", "-csv"}, "id,category,cores,memory_mb,disk_mb,time_s\n1,trimodal,"},
		{[]string{"tracegen", "-workflow", "trimodal", "-tasks", "50", "-o", trace}, ""},
		{[]string{"run", "-workflow-file", trace, "-algorithm", "max-seen"}, "workload=trimodal algorithm=max-seen tasks=50 "},
	} {
		if out := mustRun(t, tc.args...); !strings.Contains(out, tc.want) {
			t.Errorf("dynalloc %s: output lacks %q:\n%s", strings.Join(tc.args, " "), tc.want, out)
		}
	}
}

// TestRecordReplayWhatIfLoop records DES runs, verifies the fidelity replay
// of one and analyzes both, whose rows follow the argument order.
func TestRecordReplayWhatIfLoop(t *testing.T) {
	dir := t.TempDir()
	gb, ms := filepath.Join(dir, "gb.jsonl"), filepath.Join(dir, "ms.jsonl")
	for _, rec := range []struct{ alg, path string }{{"greedy-bucketing", gb}, {"max-seen", ms}} {
		mustRun(t, "run", "-workflow", "normal", "-tasks", "120", "-algorithm", rec.alg,
			"-des", "-pool", "churn:8:600:120:2000", "-log", rec.path)
	}

	out := mustRun(t, "whatif", "-fidelity", "-algorithm", "greedy-bucketing,max-seen", "-j", "2", gb)
	if !strings.Contains(out, "fidelity: replay under greedy-bucketing reproduces the recorded summary bit-identically") {
		t.Errorf("whatif -fidelity:\n%s", out)
	}

	out = mustRun(t, "analyze", "-by-category", "-j", "2", ms, gb)
	msRow, gbRow := strings.Index(out, ms+" "), strings.Index(out, gb+" ")
	if msRow < 0 || gbRow < msRow {
		t.Errorf("analyze rows do not follow the argument order:\n%s", out)
	}
	if !strings.Contains(out, "  - normal") {
		t.Errorf("analyze -by-category has no category row:\n%s", out)
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"bogus"},
		{"ablate", "-only", "bogus"},
		{"analyze"},
		{"whatif"},
		{"figures"},
		{"run", "-no-such-flag"},
		{"run", "-stream"},
	} {
		code, _, errOut := dynalloc(args...)
		if code != 2 || !strings.Contains(errOut, "usage: dynalloc") {
			t.Errorf("dynalloc %s: exit %d, want 2 with usage; stderr:\n%s", strings.Join(args, " "), code, errOut)
		}
	}
}

// TestRunRefusesFlagsItWouldIgnore: the pool, placement and data layer
// take effect only under -des, and the window only under -stream, so a run
// without them refuses the flag by name instead of ignoring it; with them
// the same flags run.
func TestRunRefusesFlagsItWouldIgnore(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-pool", []string{"-pool", "static:4"}},
		{"-placement", []string{"-placement", "worst-fit"}},
		{"-data", []string{"-data"}},
		{"-window", []string{"-window", "8"}},
		{"-window", []string{"-des", "-window", "8"}},
	} {
		args := append([]string{"run", "-tasks", "40"}, tc.args...)
		code, out, errOut := dynalloc(args...)
		if code != 2 || !strings.Contains(errOut, tc.flag+" requires") || out != "" {
			t.Errorf("dynalloc %s: exit %d, stdout %q, want 2 naming %s; stderr:\n%s",
				strings.Join(args, " "), code, out, tc.flag, errOut)
		}
	}
	for _, args := range [][]string{
		{"run", "-tasks", "40", "-des", "-pool", "static:4", "-placement", "worst-fit", "-data"},
		{"run", "-tasks", "40", "-des", "-stream", "-window", "8"},
	} {
		mustRun(t, args...)
	}
}

// TestRunListRefusesOneRunOutputs: a run log, a JSON summary and the oracle
// each describe one run, so an algorithm list refuses them by name instead
// of dropping them.
func TestRunListRefusesOneRunOutputs(t *testing.T) {
	log := filepath.Join(t.TempDir(), "x.jsonl")
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-log", []string{"-des", "-log", log}},
		{"-json", []string{"-json"}},
		{"-oracle", []string{"-oracle"}},
	} {
		args := append([]string{"run", "-tasks", "40", "-algorithm", "greedy-bucketing,max-seen"}, tc.args...)
		code, out, errOut := dynalloc(args...)
		if code != 2 || !strings.Contains(errOut, tc.flag+" takes one algorithm") || out != "" {
			t.Errorf("%s with a list: exit %d, stdout %q, stderr:\n%s", tc.flag, code, out, errOut)
		}
	}
	if _, err := os.Stat(log); !os.IsNotExist(err) {
		t.Errorf("a refused list wrote the run log (stat: %v)", err)
	}
}

// TestRunListRowsAreSingleRuns: every row of an algorithm comparison is the
// run -algorithm with that one name gives, seed and flags included.
// Against each case's baseline the flag changes the run, so a row that
// dropped the flag would not match.
func TestRunListRowsAreSingleRuns(t *testing.T) {
	seq := []string{"run", "-workflow", "bimodal", "-tasks", "80"}
	des := append(seq[:len(seq):len(seq)], "-des", "-pool", "churn:4:600:120:2000")
	with := func(base []string, extra ...string) []string {
		return append(base[:len(base):len(base)], extra...)
	}
	algs := []string{"greedy-bucketing", "max-seen"}
	for _, tc := range []struct {
		name           string
		args, baseline []string
	}{
		{"sequential", seq, nil},
		{"placement", with(des, "-placement", "worst-fit"), des},
		{"data", with(des, "-data"), des},
		{"stream", with(des, "-stream"), nil},
		{"window", with(des, "-stream", "-window", "8"), with(des, "-stream")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows := map[string]string{}
			list := mustRun(t, with(tc.args, "-algorithm", strings.Join(algs, ","), "-j", "2")...)
			for _, line := range strings.Split(list, "\n") {
				if f := strings.Fields(line); len(f) == 6 {
					rows[f[0]] = strings.Join(f[1:5], " ")
				}
			}
			for _, alg := range algs {
				single := summary(t, with(tc.args, "-algorithm", alg)...)
				if got, want := rows[alg], row(single); got != want {
					t.Errorf("%s row = %q, the single run gives %q\n%s", alg, got, want, list)
				}
				if tc.baseline != nil && summary(t, with(tc.baseline, "-algorithm", alg)...) == single {
					t.Errorf("%s: the flag under test does not change the run, so the row cannot show it was kept", alg)
				}
			}
		})
	}
}

// summary runs one algorithm with -json and returns its summary.
func summary(t *testing.T, args ...string) string {
	t.Helper()
	return mustRun(t, append(args, "-json")...)
}

// row renders a JSON summary as a comparison row's AWE and retries columns.
func row(summaryJSON string) string {
	var s metrics.Summary
	if err := json.Unmarshal([]byte(summaryJSON), &s); err != nil {
		return err.Error()
	}
	awe := map[string]float64{}
	for _, k := range s.PerKind {
		awe[k.Kind] = k.AWE
	}
	return fmt.Sprintf("%s %s %s %d",
		report.Percent(awe["cores"]), report.Percent(awe["memory"]), report.Percent(awe["disk"]), s.Retries)
}
