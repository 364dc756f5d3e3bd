package record

import (
	"slices"
	"testing"
)

// FuzzRecordListMergeMatchesResort pins the incremental rebuild machinery —
// the batch sort and merge, the one downward pass that moves the entries
// above the batch and adds its sums to their prefixes, and the lazily
// extended time prefixes — against the obvious oracle: a map from value to
// the exact sums of its records, read in sorted key order and summed left to
// right from zero. After every batch the entries, every prefix column and
// the per-entry times must equal the oracle's exactly. The fuzzer drives
// random Add/query interleavings with batches of up to eight records between
// queries, repeated values (a batch that only adds to existing entries moves
// nothing), ascending runs and descending runs (every record of the batch
// lands in a block of its own).
func FuzzRecordListMergeMatchesResort(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 4, 5, 0, 6}, uint8(3))
	f.Add([]byte{9, 9, 9, 9, 0, 1, 1, 0, 255, 0}, uint8(1))
	f.Add([]byte{0, 0, 0}, uint8(7))
	f.Add([]byte{40, 80, 120, 160, 200, 0, 190, 150, 110, 70, 30, 20, 10, 0, 5}, uint8(0x87))          // descending batch into an ascending base
	f.Add([]byte{7, 6, 5, 4, 3, 2, 1, 9, 8, 7, 6, 5, 4, 3, 2, 1, 9, 8, 7, 6, 5, 4, 3, 2}, uint8(0x27)) // time sums every fourth query
	f.Add([]byte{3, 3, 5, 0, 3, 5, 3, 5, 0, 5, 5, 3, 3}, uint8(0x02))                                  // batches of existing values only
	f.Fuzz(func(t *testing.T, vals []byte, mod uint8) {
		// mod packs three knobs: bits 0-2 the batch size between periodic
		// queries, bits 3-5 how many rebuilds go by between two reads of the
		// time-weighted sums (their prefixes trail behind a watermark until
		// read), bit 7 whether values use the byte's full range or repeat
		// heavily (mod 16), so that most records land on an existing entry.
		period := int(mod&7) + 1
		timeEvery := int(mod>>3&7) + 1
		wide := mod&0x80 != 0

		type sums struct{ sig, valSig, time, valT, cnt int64 }
		l := &List{}
		oracle := map[int64]*sums{}
		records, checks := 0, 0
		check := func() {
			t.Helper()
			checks++
			keys := make([]int64, 0, len(oracle))
			for k := range oracle {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			m := len(keys)

			v := l.View()
			if v.Len() != m || len(v.PrefixSig) != m+1 || len(v.PrefixValSig) != m+1 || len(l.prefixCount) != m+1 {
				t.Fatalf("view holds %d entries, %d/%d/%d prefix entries, want %d and %d",
					v.Len(), len(v.PrefixSig), len(v.PrefixValSig), len(l.prefixCount), m, m+1)
			}
			if l.Len() != records || l.Entries() != m || len(l.times) != m {
				t.Fatalf("%d records, %d entries, %d times, want %d, %d, %d", l.Len(), l.Entries(), len(l.times), records, m, m)
			}
			var want sums
			for i, k := range keys {
				o := oracle[k]
				if v.Values[i] != float64(k) || l.times[i] != o.time {
					t.Fatalf("entry %d = (%v, time %d), want (%d, %d)", i, v.Values[i], l.times[i], k, o.time)
				}
				if v.PrefixSig[i] != want.sig || v.PrefixValSig[i] != want.valSig || l.prefixCount[i] != want.cnt {
					t.Fatalf("prefix[%d] = (%d, %d, %d), want (%d, %d, %d)", i,
						v.PrefixSig[i], v.PrefixValSig[i], l.prefixCount[i], want.sig, want.valSig, want.cnt)
				}
				want.sig += o.sig
				want.valSig += o.valSig
				want.cnt += o.cnt
			}
			if v.PrefixSig[m] != want.sig || v.PrefixValSig[m] != want.valSig || l.prefixCount[m] != want.cnt {
				t.Fatalf("totals = (%d, %d, %d), want (%d, %d, %d)",
					v.PrefixSig[m], v.PrefixValSig[m], l.prefixCount[m], want.sig, want.valSig, want.cnt)
			}
			if m == 0 {
				return
			}
			if v.MaxValue() != float64(keys[m-1]) || l.MinValue() != float64(keys[0]) {
				t.Fatalf("min/max = %v/%v, want %d/%d", l.MinValue(), v.MaxValue(), keys[0], keys[m-1])
			}
			if checks%timeEvery != 0 {
				return
			}
			var tm, valT int64
			for i, k := range keys {
				lo := i / 2 // an arbitrary interior range per position
				tm += oracle[k].time
				valT += oracle[k].valT
				var tmLo, valTLo int64
				for _, kl := range keys[:lo] {
					tmLo += oracle[kl].time
					valTLo += oracle[kl].valT
				}
				if got := l.TimeSum(lo, i); got != float64(tm-tmLo) {
					t.Fatalf("TimeSum(%d,%d) = %v, want %d", lo, i, got, tm-tmLo)
				}
				if got := l.ValueTimeSum(lo, i); got != float64(valT-valTLo) {
					t.Fatalf("ValueTimeSum(%d,%d) = %v, want %d", lo, i, got, valT-valTLo)
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
			value := int64(b % 16)
			if wide {
				value = int64(b)
			}
			r := Record{TaskID: i + 1, Value: float64(value), Sig: float64(i + 1), Time: float64(b % 7)}
			l.Add(r)
			records++
			o := oracle[value]
			if o == nil {
				o = &sums{}
				oracle[value] = o
			}
			o.sig += int64(i + 1)
			o.valSig += value * int64(i+1)
			o.time += int64(b % 7)
			o.valT += value * int64(b%7)
			o.cnt++
			if (i+1)%period == 0 {
				check()
			}
		}
		check()
	})
}
