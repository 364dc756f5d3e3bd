package wq

import (
	"context"
	"testing"

	"dynalloc/internal/resources"
	"dynalloc/internal/sim"
)

func TestWorkerConfigDefaults(t *testing.T) {
	cfg := WorkerConfig{}.withDefaults()
	if cfg.Capacity != resources.PaperWorker() {
		t.Errorf("default capacity = %v", cfg.Capacity)
	}
	if cfg.TimeScale != 1e-4 {
		t.Errorf("default timescale = %v", cfg.TimeScale)
	}
	custom := WorkerConfig{Capacity: resources.New(4, 1024, 1024, 0), TimeScale: 1}.withDefaults()
	if custom.Capacity.Get(resources.Cores) != 4 || custom.TimeScale != 1 {
		t.Errorf("custom config overwritten: %+v", custom)
	}
}

func TestExecuteTaskSuccess(t *testing.T) {
	cfg := WorkerConfig{TimeScale: 0}.withDefaults()
	cfg.TimeScale = 1e-9 // effectively no sleeping
	msg := Message{
		Type:     MsgTask,
		TaskID:   7,
		Category: "c",
		Alloc:    resources.New(2, 1000, 1000, resources.Unlimited),
		Peak:     resources.New(1, 500, 100, 0),
		Runtime:  30,
	}
	res := executeTask(context.Background(), cfg, msg)
	if res.Type != MsgResult || res.TaskID != 7 {
		t.Fatalf("result frame = %+v", res)
	}
	if res.Status != StatusSuccess {
		t.Errorf("status = %q", res.Status)
	}
	if res.Duration != 30 {
		t.Errorf("duration = %v, want the runtime", res.Duration)
	}
	if res.Exceeded != 0 {
		t.Errorf("exceeded = %v", res.Exceeded.AppendKinds(nil))
	}
}

func TestExecuteTaskExhaustion(t *testing.T) {
	cfg := WorkerConfig{}.withDefaults()
	cfg.TimeScale = 1e-9
	cfg.Model = sim.RampLinear
	msg := Message{
		Type:    MsgTask,
		TaskID:  8,
		Alloc:   resources.New(2, 250, 1000, resources.Unlimited),
		Peak:    resources.New(1, 500, 100, 0),
		Runtime: 100,
	}
	res := executeTask(context.Background(), cfg, msg)
	if res.Status != StatusExhausted {
		t.Fatalf("status = %q", res.Status)
	}
	if res.Duration != 50 {
		t.Errorf("kill time = %v, want 50 (linear ramp crosses at a/c)", res.Duration)
	}
	if res.Exceeded != 1<<resources.Memory {
		t.Errorf("exceeded = %v, want [memory]", res.Exceeded.AppendKinds(nil))
	}
}

func TestExecuteTaskCancelledContext(t *testing.T) {
	cfg := WorkerConfig{}.withDefaults()
	cfg.TimeScale = 10 // would sleep 300 s without cancellation
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	msg := Message{
		Type:    MsgTask,
		TaskID:  9,
		Alloc:   resources.New(2, 1000, 1000, resources.Unlimited),
		Peak:    resources.New(1, 500, 100, 0),
		Runtime: 30,
	}
	res := executeTask(ctx, cfg, msg)
	// The result is still produced (the manager may be gone, but the frame
	// logic must not hang).
	if res.Status != StatusSuccess {
		t.Errorf("status = %q", res.Status)
	}
}
