package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// span is one traced interval at a layer boundary. Spans of one task (or one
// allocd cycle) share ID; Parent names the span that caused this one ("" for
// the root). Times are nanoseconds since the round's timed region began.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// SelfNS is the span's duration minus the part its children cover;
	// filled in for spans whose children are all recorded (sampled
	// allocator spans are children too sparse to subtract).
	SelfNS int64 `json:"self_ns,omitempty"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// selfTime returns the parent's duration minus the part of that interval its
// children cover. Children may overlap each other and may stick out of the
// parent; overlap is counted once and the excess is clipped.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := c.StartNS, c.EndNS
		if lo < parent.StartNS {
			lo = parent.StartNS
		}
		if hi > parent.EndNS {
			hi = parent.EndNS
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := int64(0), parent.StartNS
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return parent.dur() - covered
}

// spanSink keeps one round's spans in memory until the benchmark ends.
// Layers append concurrently; maxSpans bounds memory on the million-task
// rounds (the count of dropped spans is reported, not hidden).
type spanSink struct {
	mu      sync.Mutex
	spans   []span
	dropped int
}

const maxSpans = 1 << 20

func (k *spanSink) add(s span) {
	k.mu.Lock()
	if len(k.spans) < maxSpans {
		k.spans = append(k.spans, s)
	} else {
		k.dropped++
	}
	k.mu.Unlock()
}

func (k *spanSink) len() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.spans) + k.dropped
}

// writeJSONL writes the spans one JSON object per line to
// dir/trace-<workload>.jsonl.
func (k *spanSink) writeJSONL(dir, workload string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("closing %s: %w", path, cerr)
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	k.mu.Lock()
	defer k.mu.Unlock()
	for i := range k.spans {
		if err := enc.Encode(&k.spans[i]); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
