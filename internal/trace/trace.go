// Package trace serializes workloads and run results: the per-task
// consumption series behind Figures 2 and 4 (as CSV or JSON), and full
// workflow definitions so generated traces can be saved, inspected, and
// replayed byte-identically across tools.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"dynalloc/internal/resources"
	"dynalloc/internal/workflow"
)

// TaskPoint is one point of a Figure 2/4 consumption series: a task's peak
// consumption in every resource dimension, keyed by submission order.
type TaskPoint struct {
	ID       int     `json:"id"`
	Category string  `json:"category"`
	Cores    float64 `json:"cores"`
	MemoryMB float64 `json:"memory_mb"`
	DiskMB   float64 `json:"disk_mb"`
	TimeS    float64 `json:"time_s"`
}

// Points converts a workflow into its consumption series.
func Points(w *workflow.Workflow) []TaskPoint {
	out := make([]TaskPoint, 0, len(w.Tasks))
	for _, t := range w.Tasks {
		out = append(out, TaskPoint{
			ID:       t.ID,
			Category: t.Category,
			Cores:    t.Consumption.Get(resources.Cores),
			MemoryMB: t.Consumption.Get(resources.Memory),
			DiskMB:   t.Consumption.Get(resources.Disk),
			TimeS:    t.Consumption.Get(resources.Time),
		})
	}
	return out
}

// WriteCSV writes the series with a header row, one task per line.
func WriteCSV(w io.Writer, points []TaskPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "category", "cores", "memory_mb", "disk_mb", "time_s"}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
	for _, p := range points {
		rec := []string{strconv.Itoa(p.ID), p.Category, f(p.Cores), f(p.MemoryMB), f(p.DiskMB), f(p.TimeS)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// File is the JSON representation of a complete workflow.
type File struct {
	Name         string      `json:"name"`
	Barriers     []int       `json:"barriers,omitempty"`
	SubmitWindow int         `json:"submit_window,omitempty"`
	Tasks        []TaskPoint `json:"tasks"`
}

// WriteWorkflow serializes a workflow as indented JSON.
func WriteWorkflow(w io.Writer, wf *workflow.Workflow) error {
	file := File{Name: wf.Name, Barriers: wf.Barriers, SubmitWindow: wf.SubmitWindow, Tasks: Points(wf)}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(file)
}

// ReadWorkflow deserializes a workflow written by WriteWorkflow.
func ReadWorkflow(r io.Reader) (*workflow.Workflow, error) {
	var file File
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return nil, fmt.Errorf("trace: decoding workflow: %w", err)
	}
	return file.workflow(), nil
}

// workflow converts a decoded file, numbering tasks without an ID by
// position. The task slice is allocated once, at the decoded length.
func (file *File) workflow() *workflow.Workflow {
	wf := &workflow.Workflow{Name: file.Name, Barriers: file.Barriers, SubmitWindow: file.SubmitWindow}
	if len(file.Tasks) > 0 {
		wf.Tasks = make([]workflow.Task, 0, len(file.Tasks))
	}
	for i, p := range file.Tasks {
		if p.ID == 0 {
			p.ID = i + 1
		}
		wf.Tasks = append(wf.Tasks, workflow.Task{
			ID:          p.ID,
			Category:    p.Category,
			Consumption: resources.New(p.Cores, p.MemoryMB, p.DiskMB, p.TimeS),
		})
	}
	return wf
}
