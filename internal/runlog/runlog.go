// Package runlog reads and writes run logs: a JSON-lines record of one
// workflow execution — which algorithm allocated it, every attempt of every
// task, and the resulting metrics. The paper's artifact is a collection of
// such logs ("All logs are available at ..."); this package makes the
// reproduction's runs equally inspectable and re-analyzable: a log can be
// replayed into a metrics accumulator without re-running the simulation
// (Replay), or fed back into the simulator as a workload for counterfactual
// "what if another allocator had run this trace?" experiments (TraceSource,
// Resimulate).
//
// Format: the first line is a header object, followed by one object per
// trace record (task outcomes, worker arrivals, lifecycle events),
// terminated by a footer carrying the summary. Every line is independent
// JSON, so logs stream and concatenate naturally.
//
// Versioning: the header's "format" field declares the writer's format
// version (FormatVersion; absent means the original v1 layout). A reader
// encountering a record kind it does not know applies the header's version:
// kinds inside a format the reader fully knows are corruption (an error),
// kinds from a declared-newer format are skipped and counted in
// Log.UnknownKinds — so growing the format never breaks old readers again.
package runlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"dynalloc/internal/metrics"
	"dynalloc/internal/resources"
	"dynalloc/internal/sim"
)

// FormatVersion is the run-log format this package writes. History:
//
//	1 — header / task / event / footer lines (implicit; no "format" field)
//	2 — versioned header with the replay configuration (driver, consumption
//	    model, placement, pool, submit window, barriers, worker shape),
//	    "worker" lines carrying the realized arrival/eviction schedule,
//	    task submit/done times, and footer makespan
const FormatVersion = 2

// Driver names recorded in Header.Driver: which engine produced the log,
// and hence how Resimulate replays it.
const (
	// DriverSequential: the fast pool-free sequential driver.
	DriverSequential = "sequential"
	// DriverDES: the discrete-event pool simulation.
	DriverDES = "des"
	// DriverWQ: the live Work Queue engine (wall-clock timestamps; replay
	// through the DES against the schedule derived from its worker lines).
	DriverWQ = "wq"
)

// ErrNoOutcomes reports that Finish was asked to serialize a result that
// retained no per-task outcomes (a streaming run with Config.OnOutcome or
// DiscardOutcomes) and no task lines were written incrementally either: the
// log would carry a footer summarizing tasks that appear nowhere in it.
// Streaming runs record by wiring Writer.Task into Config.OnOutcome.
var ErrNoOutcomes = errors.New("runlog: result retained no task outcomes")

// Header identifies a run. The fields beyond Tasks (format 2) pin down
// everything a replay needs to re-create the run's environment; they are
// empty on v1 logs and on logs written by engines for which they do not
// apply (e.g. Placement on a sequential run).
type Header struct {
	Kind      string `json:"kind"`             // always "header"
	Format    int    `json:"format,omitempty"` // FormatVersion; 0 = v1
	Workload  string `json:"workload"`
	Algorithm string `json:"algorithm"`
	Seed      uint64 `json:"seed"` // allocator seed; replay re-seeds with it
	// Tasks is the expected task count when known up front; 0 on streaming
	// runs whose source length is unknown. The footer's summary carries the
	// authoritative count.
	Tasks int `json:"tasks"`

	// Driver names the engine that produced the log (Driver* constants).
	Driver string `json:"driver,omitempty"`
	// Model is the task consumption profile (sim.ConsumptionModel.String).
	Model string `json:"model,omitempty"`
	// Placement is the DES worker placement policy (sim.Placement.String).
	Placement string `json:"placement,omitempty"`
	// Pool names the pool model the run sampled its schedule from; the
	// realized schedule itself is in the worker lines.
	Pool string `json:"pool,omitempty"`
	// Window and Barriers mirror the workload's submit window and phase
	// barriers (workflow.Source contract).
	Window   int   `json:"window,omitempty"`
	Barriers []int `json:"barriers,omitempty"`
	// MaxAttempts is the run's retry limit, sched.Core.RetryLimit (0 = engine default).
	MaxAttempts int `json:"max_attempts,omitempty"`
	// DataLayer marks runs under the TaskVine-style data layer, whose
	// staging times are not recorded and hence not replayable.
	DataLayer bool `json:"data_layer,omitempty"`
	// WorkerCores/WorkerMemoryMB/WorkerDiskMB are the worker shape; zero
	// means the paper worker.
	WorkerCores    float64 `json:"worker_cores,omitempty"`
	WorkerMemoryMB float64 `json:"worker_memory_mb,omitempty"`
	WorkerDiskMB   float64 `json:"worker_disk_mb,omitempty"`
}

// workerShape reconstructs the worker capacity vector recorded in the
// header; the zero vector when the header predates format 2 or recorded the
// default shape.
func (h Header) workerShape() resources.Vector {
	if h.WorkerCores == 0 && h.WorkerMemoryMB == 0 && h.WorkerDiskMB == 0 {
		return resources.Vector{}
	}
	return resources.New(h.WorkerCores, h.WorkerMemoryMB, h.WorkerDiskMB, resources.Unlimited)
}

// SimHeader builds a replayable (format 2) header from a simulation
// configuration: driver is one of the Driver* constants, workload/algorithm
// /seed identify the run, and window/barriers mirror the workload source.
// The pool, placement, and worker shape are recorded only for DES runs —
// the sequential driver has none.
func SimHeader(driver, workload, algorithm string, seed uint64, cfg sim.Config, window int, barriers []int) Header {
	h := Header{
		Workload:    workload,
		Algorithm:   algorithm,
		Seed:        seed,
		Driver:      driver,
		Model:       cfg.Model.String(),
		Window:      window,
		Barriers:    barriers,
		MaxAttempts: cfg.MaxAttempts,
		DataLayer:   cfg.Data != nil,
	}
	if driver == DriverDES {
		h.Placement = cfg.Place.String()
		if cfg.Pool != nil {
			h.Pool = cfg.Pool.Name()
		}
		shape := cfg.WorkerShape
		if shape.IsZero() {
			shape = resources.PaperWorker()
		}
		h.WorkerCores = shape.Get(resources.Cores)
		h.WorkerMemoryMB = shape.Get(resources.Memory)
		h.WorkerDiskMB = shape.Get(resources.Disk)
	}
	return h
}

// AttemptRecord is one execution attempt in the log.
type AttemptRecord struct {
	Cores    float64 `json:"cores"`
	MemoryMB float64 `json:"memory_mb"`
	DiskMB   float64 `json:"disk_mb"`
	Duration float64 `json:"duration_s"`
	Status   string  `json:"status"`
}

// TaskRecord is one task outcome in the log.
type TaskRecord struct {
	Kind     string          `json:"kind"` // always "task"
	ID       int             `json:"id"`
	Category string          `json:"category"`
	Cores    float64         `json:"cores"`
	MemoryMB float64         `json:"memory_mb"`
	DiskMB   float64         `json:"disk_mb"`
	Runtime  float64         `json:"runtime_s"`
	SubmitS  float64         `json:"submit_s,omitempty"` // virtual submit time
	DoneS    float64         `json:"done_s,omitempty"`   // virtual completion time
	Attempts []AttemptRecord `json:"attempts"`
}

// WorkerRecord is one realized worker arrival in the log: the churn
// schedule the run actually executed against, written so a replay can
// script the identical eviction sequence instead of sampling fresh churn.
type WorkerRecord struct {
	Kind      string  `json:"kind"` // always "worker"
	ID        int     `json:"worker_id"`
	AtS       float64 `json:"at_s"`                 // join time
	LifetimeS float64 `json:"lifetime_s,omitempty"` // seconds until eviction; <= 0 means never evicted
}

// Footer carries the run summary.
type Footer struct {
	Kind        string          `json:"kind"` // always "footer"
	Summary     metrics.Summary `json:"summary"`
	MakespanS   float64         `json:"makespan_s,omitempty"`
	PeakWorkers int             `json:"peak_workers,omitempty"`
}

// EventRecord is one lifecycle event emitted by the live engine (dispatch,
// result, eviction, requeue, heartbeat timeout, drain, ...). Event lines are
// interleaved with the header and task records, so a live run's log carries
// both the replayable outcomes and a timeline of what the manager did.
// WorkerID is -1 when the event is not tied to a worker; TaskID is -1 when
// it is not tied to a task.
type EventRecord struct {
	Kind     string `json:"kind"` // always "event"
	TimeNS   int64  `json:"t_ns"` // wall-clock timestamp, unix nanoseconds
	Event    string `json:"event"`
	TaskID   int    `json:"task_id"`
	WorkerID int    `json:"worker_id"`
	Status   string `json:"status,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// Writer incrementally emits a run log: the header is written (and flushed)
// on creation, Event/Task/Worker append trace lines as they happen, and
// Finish writes any retained task outcomes, the arrival schedule, and the
// footer. All methods are safe for concurrent use, which is what a live
// manager's tracer needs.
type Writer struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	enc    *json.Encoder
	events int
	tasks  int
}

// NewWriter starts a log with the given header and flushes it, so even a
// run killed immediately afterwards leaves a parseable (if empty) log. The
// caller sets hdr.Tasks to the expected task count when known; Write (the
// one-shot path) fills it from the result. hdr.Format is stamped with
// FormatVersion unless the caller already set a version.
func NewWriter(w io.Writer, hdr Header) (*Writer, error) {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	hdr.Kind = "header"
	if hdr.Format == 0 {
		hdr.Format = FormatVersion
	}
	if err := enc.Encode(hdr); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return &Writer{bw: bw, enc: enc}, nil
}

// Event appends one lifecycle event line.
func (w *Writer) Event(ev EventRecord) error {
	ev.Kind = "event"
	w.mu.Lock()
	defer w.mu.Unlock()
	w.events++
	return w.enc.Encode(ev)
}

// Events returns the number of event lines written so far.
func (w *Writer) Events() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.events
}

// Task appends one task outcome line. This is the streaming-mode recording
// path: wire it into sim.Config.OnOutcome and million-task runs are
// recordable without ever retaining the outcome slice in memory. The
// pointed-to outcome is only read during the call, so the simulator is free
// to recycle it afterwards.
func (w *Writer) Task(o *metrics.TaskOutcome) error {
	tr := taskRecord(o)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.tasks++
	return w.enc.Encode(tr)
}

// Tasks returns the number of task lines written so far (incremental path
// plus any written by Finish).
func (w *Writer) Tasks() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tasks
}

// Worker appends one realized worker arrival line.
func (w *Writer) Worker(rec WorkerRecord) error {
	rec.Kind = "worker"
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.enc.Encode(rec)
}

// Flush pushes everything buffered so far to the underlying writer. Live
// tracers flush periodically so a crashed or killed run loses at most the
// tail of its timeline, not the whole buffered log.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bw.Flush()
}

// Finish writes the retained task outcomes, the realized arrival schedule,
// and the footer, then flushes the log.
//
// A result that retained no outcomes (streaming mode) is an error unless
// task lines were already written incrementally through Task: silently
// emitting a footer that summarizes tasks absent from the log would leave
// the file unreplayable with no indication why.
func (w *Writer) Finish(res *sim.Result) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if res.Outcomes == nil && w.tasks == 0 && res.Acc.Tasks() > 0 {
		return fmt.Errorf("%w: %d tasks were streamed away (OnOutcome/DiscardOutcomes); wire Writer.Task into Config.OnOutcome to record streaming runs", ErrNoOutcomes, res.Acc.Tasks())
	}
	for id, a := range res.Arrivals {
		rec := WorkerRecord{Kind: "worker", ID: id, AtS: a.At, LifetimeS: a.Lifetime}
		if err := w.enc.Encode(rec); err != nil {
			return err
		}
	}
	for i := range res.Outcomes {
		w.tasks++
		if err := w.enc.Encode(taskRecord(&res.Outcomes[i])); err != nil {
			return err
		}
	}
	f := Footer{
		Kind:        "footer",
		Summary:     res.Acc.Summarize(),
		MakespanS:   res.Makespan,
		PeakWorkers: res.PeakWorkers,
	}
	if err := w.enc.Encode(f); err != nil {
		return err
	}
	return w.bw.Flush()
}

// taskRecord serializes one outcome as a task line.
func taskRecord(o *metrics.TaskOutcome) TaskRecord {
	tr := TaskRecord{
		Kind:     "task",
		ID:       o.TaskID,
		Category: o.Category,
		Cores:    o.Peak.Get(resources.Cores),
		MemoryMB: o.Peak.Get(resources.Memory),
		DiskMB:   o.Peak.Get(resources.Disk),
		Runtime:  o.Runtime,
		SubmitS:  o.SubmitTime,
		DoneS:    o.DoneTime,
	}
	for _, a := range o.Attempts {
		tr.Attempts = append(tr.Attempts, AttemptRecord{
			Cores:    a.Alloc.Get(resources.Cores),
			MemoryMB: a.Alloc.Get(resources.Memory),
			DiskMB:   a.Alloc.Get(resources.Disk),
			Duration: a.Duration,
			Status:   a.Status.String(),
		})
	}
	return tr
}

// Write serializes a run result as a log in one shot (no event lines). It
// refuses streaming-mode results the same way Finish does.
func Write(w io.Writer, hdr Header, res *sim.Result) error {
	hdr.Tasks = res.Acc.Tasks()
	lw, err := NewWriter(w, hdr)
	if err != nil {
		return err
	}
	return lw.Finish(res)
}

// Log is a parsed run log.
type Log struct {
	Header   Header
	Outcomes []metrics.TaskOutcome
	Workers  []WorkerRecord // realized arrival schedule, in log order
	Events   []EventRecord  // lifecycle events, in log order (live runs only)
	Footer   *Footer        // nil when the log was truncated before the footer
	// UnknownKinds counts record lines whose kind this reader does not know
	// but whose header declared a newer format than FormatVersion — skipped
	// rather than fatal, so future format growth degrades gracefully.
	UnknownKinds int
	// TornLines is 1 when the log's last line was cut short, as a kill
	// mid-write leaves it: malformed and without the newline the writer ends
	// every line with. That line is dropped; everything before it is kept.
	TornLines int
}

// Read parses a log. A log cut short can still be analyzed: a missing footer
// is tolerated, and so is a malformed last line without its newline (counted
// in Log.TornLines). Any other malformed line is an error. Unknown record
// kinds are an error when the log's declared format is one this reader fully
// knows (they can only be corruption) and are skipped and counted in
// Log.UnknownKinds when the header declares a newer format.
func Read(r io.Reader) (*Log, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	unterminated := false // the line just scanned ran to the end without a newline
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		unterminated = atEOF && bytes.IndexByte(data, '\n') < 0
		return bufio.ScanLines(data, atEOF)
	})
	var log Log
	sawHeader := false
	line := 0
	for sc.Scan() {
		line++
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			if unterminated {
				log.TornLines++
				break
			}
			return nil, fmt.Errorf("runlog: line %d: %w", line, err)
		}
		switch probe.Kind {
		case "header":
			if err := json.Unmarshal(sc.Bytes(), &log.Header); err != nil {
				return nil, fmt.Errorf("runlog: line %d: %w", line, err)
			}
			if log.Header.Format == 0 {
				log.Header.Format = 1
			}
			sawHeader = true
		case "task":
			var tr TaskRecord
			if err := json.Unmarshal(sc.Bytes(), &tr); err != nil {
				return nil, fmt.Errorf("runlog: line %d: %w", line, err)
			}
			log.Outcomes = append(log.Outcomes, tr.outcome())
		case "worker":
			var wr WorkerRecord
			if err := json.Unmarshal(sc.Bytes(), &wr); err != nil {
				return nil, fmt.Errorf("runlog: line %d: %w", line, err)
			}
			log.Workers = append(log.Workers, wr)
		case "event":
			var ev EventRecord
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				return nil, fmt.Errorf("runlog: line %d: %w", line, err)
			}
			log.Events = append(log.Events, ev)
		case "footer":
			var f Footer
			if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
				return nil, fmt.Errorf("runlog: line %d: %w", line, err)
			}
			log.Footer = &f
		default:
			if sawHeader && log.Header.Format > FormatVersion {
				log.UnknownKinds++
				continue
			}
			return nil, fmt.Errorf("runlog: line %d: unknown kind %q", line, probe.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, fmt.Errorf("runlog: missing header")
	}
	return &log, nil
}

func (tr TaskRecord) outcome() metrics.TaskOutcome {
	o := metrics.TaskOutcome{
		TaskID:     tr.ID,
		Category:   tr.Category,
		Peak:       resources.New(tr.Cores, tr.MemoryMB, tr.DiskMB, tr.Runtime),
		Runtime:    tr.Runtime,
		SubmitTime: tr.SubmitS,
		DoneTime:   tr.DoneS,
	}
	for _, a := range tr.Attempts {
		status := metrics.Success
		switch a.Status {
		case metrics.Exhausted.String():
			status = metrics.Exhausted
		case metrics.Evicted.String():
			status = metrics.Evicted
		case metrics.Failed.String():
			status = metrics.Failed
		}
		o.Attempts = append(o.Attempts, metrics.Attempt{
			Alloc:    resources.New(a.Cores, a.MemoryMB, a.DiskMB, resources.Unlimited),
			Duration: a.Duration,
			Status:   status,
		})
	}
	return o
}

// Replay folds a parsed log into a fresh accumulator, recomputing every
// metric from the raw attempts (rather than trusting the footer).
func Replay(log *Log) *metrics.Accumulator {
	var acc metrics.Accumulator
	for _, o := range log.Outcomes {
		acc.Add(o)
	}
	return &acc
}

// ReplayByCategory folds a parsed log into one accumulator per task
// category, for per-category efficiency breakdowns.
func ReplayByCategory(log *Log) map[string]*metrics.Accumulator {
	out := make(map[string]*metrics.Accumulator)
	for _, o := range log.Outcomes {
		acc, ok := out[o.Category]
		if !ok {
			acc = &metrics.Accumulator{}
			out[o.Category] = acc
		}
		acc.Add(o)
	}
	return out
}
