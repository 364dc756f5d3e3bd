package record

import (
	"math"
	"sort"
	"testing"
)

// FuzzRecordListMergeMatchesResort pins the incremental rebuild machinery —
// the in-place batch insert into the three sorted columns, the partial
// prefix-sum recompute and the lazily extended time prefixes — against the
// obvious oracle: a stable sort of all records from scratch plus prefixes
// summed left to right from zero. Every column and both significance prefix
// arrays must equal the oracle's bit for bit; each record's significance is
// distinct, so the significance column also witnesses the order of ties. The fuzzer drives random
// Add/query interleavings with batches of up to eight records between
// queries, duplicate values (stability), ascending runs (nothing moves) and
// descending runs (every record of the batch moves a block of its own).
func FuzzRecordListMergeMatchesResort(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 4, 5, 0, 6}, uint8(3))
	f.Add([]byte{9, 9, 9, 9, 0, 1, 1, 0, 255, 0}, uint8(1))
	f.Add([]byte{0, 0, 0}, uint8(7))
	f.Add([]byte{40, 80, 120, 160, 200, 0, 190, 150, 110, 70, 30, 20, 10, 0, 5}, uint8(0x87))          // descending batch into an ascending base
	f.Add([]byte{7, 6, 5, 4, 3, 2, 1, 9, 8, 7, 6, 5, 4, 3, 2, 1, 9, 8, 7, 6, 5, 4, 3, 2}, uint8(0x27)) // time sums every fourth query
	f.Fuzz(func(t *testing.T, vals []byte, mod uint8) {
		// mod packs three knobs: bits 0-2 the batch size between periodic
		// queries, bits 3-5 how many rebuilds go by between two reads of the
		// time-weighted sums (their prefixes trail behind a watermark until
		// read), bit 7 whether values use the byte's full range or repeat
		// heavily (mod 16) to exercise tie stability.
		period := int(mod&7) + 1
		timeEvery := int(mod>>3&7) + 1
		wide := mod&0x80 != 0

		l := &List{}
		var oracle []Record
		checks := 0
		check := func() {
			t.Helper()
			checks++
			want := append([]Record(nil), oracle...)
			sort.SliceStable(want, func(i, j int) bool { return want[i].Value < want[j].Value })
			n := len(want)
			sig, valSig := make([]float64, n+1), make([]float64, n+1)
			tm, valT := make([]float64, n+1), make([]float64, n+1)
			for i, w := range want {
				sig[i+1] = sig[i] + w.Sig
				valSig[i+1] = valSig[i] + w.Value*w.Sig
				tm[i+1] = tm[i] + w.Time
				valT[i+1] = valT[i] + w.Value*w.Time
			}

			v := l.View()
			if v.Len() != n || len(v.PrefixSig) != n+1 || len(v.PrefixValSig) != n+1 {
				t.Fatalf("view holds %d records, %d/%d prefix entries, want %d and %d",
					v.Len(), len(v.PrefixSig), len(v.PrefixValSig), n, n+1)
			}
			if len(l.sigs) != n || len(l.times) != n {
				t.Fatalf("columns hold %d values, %d sigs, %d times, want %d each", v.Len(), len(l.sigs), len(l.times), n)
			}
			for i, w := range want {
				if !sameBits(v.Values[i], w.Value) || !sameBits(l.sigs[i], w.Sig) || !sameBits(l.times[i], w.Time) {
					t.Fatalf("sorted[%d] = (%v, %v, %v), want (%v, %v, %v) bit for bit (stability or insert order broken)",
						i, v.Values[i], l.sigs[i], l.times[i], w.Value, w.Sig, w.Time)
				}
			}
			for i := 0; i <= n; i++ {
				if !sameBits(v.PrefixSig[i], sig[i]) || !sameBits(v.PrefixValSig[i], valSig[i]) {
					t.Fatalf("prefix[%d] = (%v, %v), want (%v, %v) bit for bit",
						i, v.PrefixSig[i], v.PrefixValSig[i], sig[i], valSig[i])
				}
			}
			if n == 0 {
				return
			}
			if v.MaxValue() != want[n-1].Value || l.MinValue() != want[0].Value {
				t.Fatalf("min/max = %v/%v, want %v/%v", l.MinValue(), v.MaxValue(), want[0].Value, want[n-1].Value)
			}
			if checks%timeEvery != 0 {
				return
			}
			for i := 0; i < n; i++ {
				lo := i / 2 // an arbitrary interior range per position
				if got, want := l.TimeSum(lo, i), tm[i+1]-tm[lo]; !sameBits(got, want) {
					t.Fatalf("TimeSum(%d,%d) = %v, want %v", lo, i, got, want)
				}
				if got, want := l.ValueTimeSum(lo, i), valT[i+1]-valT[lo]; !sameBits(got, want) {
					t.Fatalf("ValueTimeSum(%d,%d) = %v, want %v", lo, i, got, want)
				}
			}
		}
		for i, b := range vals {
			// Byte 0 forces an interleaved query; other bytes add a record.
			// Ascending task IDs double as the paper's significance.
			if b == 0 {
				check()
				continue
			}
			value := float64(b % 16)
			if wide {
				value = float64(b)
			}
			r := Record{
				TaskID: i + 1,
				Value:  value,
				Sig:    float64(i+1) / 3,
				Time:   float64(b%7) + 0.1,
			}
			l.Add(r)
			oracle = append(oracle, r)
			if (i+1)%period == 0 {
				check()
			}
		}
		check()
	})
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
