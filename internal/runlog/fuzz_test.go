package runlog

import (
	"strings"
	"testing"
)

// FuzzRead exercises the run-log parser with arbitrary input: it must never
// panic, must reject anything without a header, and may drop only a last line
// that lacks its newline.
func FuzzRead(f *testing.F) {
	f.Add(`{"kind":"header","workload":"w","algorithm":"a","seed":1,"tasks":0}`)
	f.Add(`{"kind":"header"}` + "\n" + `{"kind":"task","id":1,"category":"c","runtime_s":5,"attempts":[{"status":"success","duration_s":5}]}`)
	f.Add(`{"kind":"task"}`)
	f.Add(`{"kind":"footer"}`)
	f.Add(`{`)
	f.Add(``)
	f.Add(`{"kind":"header"}` + "\n" + `{"kind":"task","id":1,"category":"c","runtime_s":5,"attem`) // torn tail

	f.Fuzz(func(t *testing.T, input string) {
		log, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		if log.TornLines > 1 || log.TornLines == 1 && strings.HasSuffix(input, "\n") {
			t.Fatalf("%d torn lines in an input that ends with %q", log.TornLines, input[len(input)-1:])
		}
		// Accepted logs replay without panicking and with coherent counts.
		acc := Replay(log)
		if acc.Tasks() != len(log.Outcomes) {
			t.Fatalf("replay counted %d of %d outcomes", acc.Tasks(), len(log.Outcomes))
		}
		byCat := ReplayByCategory(log)
		total := 0
		for _, a := range byCat {
			total += a.Tasks()
		}
		if total != len(log.Outcomes) {
			t.Fatalf("per-category replay counted %d of %d", total, len(log.Outcomes))
		}
	})
}
