package workflow

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stream_fingerprints.golden from the current generators")

const fingerprintGolden = "testdata/stream_fingerprints.golden"

// fingerprint hashes everything a consumer can observe of one workload: the
// name, submit window and barriers, then every task's ID, category and four
// consumption values, bit-exact.
func fingerprint(w *Workflow) string {
	h := sha256.New()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(s string) {
		word(uint64(len(s)))
		h.Write([]byte(s))
	}
	str(w.Name)
	word(uint64(w.SubmitWindow))
	word(uint64(len(w.Barriers)))
	for _, x := range w.Barriers {
		word(uint64(x))
	}
	word(uint64(len(w.Tasks)))
	for _, t := range w.Tasks {
		word(uint64(t.ID))
		str(t.Category)
		for _, v := range t.Consumption {
			word(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// drainByNext reads a source one Next at a time, asking for the barriers
// between draws the way a driver does, and checks that the exhausted
// stream keeps reporting ok == false.
func drainByNext(t *testing.T, s Source) *Workflow {
	t.Helper()
	w := &Workflow{Name: s.Name(), SubmitWindow: s.SubmitWindow()}
	for b := s.NextBarrier(0); b > 0; b = s.NextBarrier(b) {
		w.Barriers = append(w.Barriers, b)
	}
	for {
		task, ok := s.Next()
		if !ok {
			break
		}
		s.NextBarrier(len(w.Tasks))
		w.Tasks = append(w.Tasks, task)
	}
	for k := 0; k < 3; k++ {
		if task, ok := s.Next(); ok {
			t.Fatalf("%s: exhausted stream yielded task %d", w.Name, task.ID)
		}
	}
	return w
}

// streamCase is one pinned workload: the synthetic families at 1 000 and
// 20 000 tasks, the production workloads at their fixed counts (n = 0).
type streamCase struct {
	name string
	n    int
}

func streamCases() []streamCase {
	var out []streamCase
	for _, name := range Names() {
		switch name {
		case "colmena", "topeft":
			out = append(out, streamCase{name, 0})
		default:
			out = append(out, streamCase{name, 1000}, streamCase{name, 20000})
		}
	}
	return out
}

// TestStreamFingerprints pins every generated task stream bit for bit:
// every family at seeds 1, 7 and 42, read three ways — the eager
// generator, the lazy source one Next at a time, and the lazy source
// behind WithSubmitWindow. A generator rewrite that changes one draw, its
// order, a category or a barrier fails here.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/workflow -run TestStreamFingerprints -update
func TestStreamFingerprints(t *testing.T) {
	var lines []string
	for _, c := range streamCases() {
		for _, seed := range []uint64{1, 7, 42} {
			key := fmt.Sprintf("%s n=%d seed=%d", c.name, c.n, seed)
			eager, err := ByName(c.name, c.n, seed)
			if err != nil {
				t.Fatal(err)
			}
			src, err := SourceByName(c.name, c.n, seed)
			if err != nil {
				t.Fatal(err)
			}
			lazy := drainByNext(t, src)
			src, err = SourceByName(c.name, c.n, seed)
			if err != nil {
				t.Fatal(err)
			}
			windowed := drainByNext(t, WithSubmitWindow(src, 64))
			if windowed.SubmitWindow != 64 {
				t.Fatalf("%s: WithSubmitWindow reports window %d", key, windowed.SubmitWindow)
			}
			lines = append(lines,
				key+" materialize "+fingerprint(eager),
				key+" next "+fingerprint(lazy),
				key+" window64 "+fingerprint(windowed))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.MkdirAll(filepath.Dir(fingerprintGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(fingerprintGolden)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(lines) {
		t.Fatalf("golden has %d lines, the streams give %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("stream changed:\n got %s\nwant %s", lines[i], want[i])
		}
	}
}
