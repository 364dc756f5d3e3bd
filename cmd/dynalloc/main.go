// Command dynalloc regenerates the paper's evaluation (Section V: Figures
// 2–6, Table I) and works its record → replay → what-if loop. Its
// subcommands are run, figures, ablate, analyze, whatif and tracegen;
// dynalloc alone lists them, and dynalloc <subcommand> -h lists one's flags.
//
//	dynalloc run -workflow normal -tasks 5000 -algorithm max-seen -des -pool backfill:20:50:120
//	dynalloc run -workflow topeft -algorithm max-seen,greedy-bucketing,exhaustive-bucketing -j 4
//	dynalloc figures -fig 5          # AWE grid, 7 workflows x 7 algorithms
//	dynalloc ablate -only category   # one ablation
//	dynalloc run -workflow topeft -algorithm greedy-bucketing -des -log run.jsonl
//	dynalloc whatif -fidelity run.jsonl
//	dynalloc analyze -by-category run.jsonl live.jsonl
//	dynalloc tracegen -workflow trimodal -tasks 5000 -csv -o trimodal.csv
//
// The flags several subcommands take (-seed, -tasks, -j, -workflow,
// -algorithm, -model, -des, -cpuprofile, -memprofile, -csv) are declared
// once, with one meaning everywhere. Work that fans out (grid cells,
// ablations, compared algorithms, replays) runs on -j worker goroutines
// with output independent of -j; Ctrl-C cancels in-flight simulations
// promptly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"dynalloc/internal/allocator"
	"dynalloc/internal/harness"
	"dynalloc/internal/sim"
	"dynalloc/internal/workflow"
)

// command is one subcommand: its name, the synopsis of its arguments, a
// one-line summary, and the function that binds its flags, parses them and
// runs it.
type command struct {
	name, args, summary string
	run                 func(c *cli)
}

var commands = []command{
	{"run", "[flags]", "run one workload under one or more allocation algorithms", simulate},
	{"figures", "[flags]", "regenerate the paper's figures and tables", figures},
	{"ablate", "[flags]", "run the design-choice ablation suite", ablate},
	{"analyze", "[flags] <runlog.jsonl>...", "recompute the paper's metrics from saved run logs", analyze},
	{"whatif", "[flags] <runlog.jsonl>", "replay one run log under other allocators and rank them", whatif},
	{"tracegen", "[flags]", "write a generated workload as a JSON trace or CSV series", tracegen},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the subcommand args[0] names on the rest of args and returns
// the process exit status: 0 on success, 1 when the run fails, 2 for a
// command line it cannot take.
func run(args []string, stdout, stderr io.Writer) (code int) {
	var cmd *command
	for i := range commands {
		if len(args) > 0 && commands[i].name == args[0] {
			cmd = &commands[i]
		}
	}
	if cmd == nil {
		if len(args) > 0 {
			fmt.Fprintf(stderr, "dynalloc: unknown subcommand %q\n", args[0])
		}
		fmt.Fprintln(stderr, "usage: dynalloc <subcommand> [flags] [args]")
		for _, c := range commands {
			fmt.Fprintf(stderr, "  %-9s %s\n", c.name, c.summary)
		}
		fmt.Fprintln(stderr, "Run dynalloc <subcommand> -h for its flags.")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	fs := flag.NewFlagSet(cmd.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: dynalloc %s %s\n", cmd.name, cmd.args)
		fs.PrintDefaults()
	}
	c := &cli{ctx: ctx, fs: fs, args: args[1:], stdout: stdout, stderr: stderr}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		e, ok := r.(exit)
		if !ok {
			panic(r)
		}
		code = e.code
		if e.err != nil {
			fmt.Fprintf(stderr, "dynalloc %s: %v\n", cmd.name, e.err)
			if code == 2 {
				fs.Usage()
			}
		}
	}()
	defer func() {
		if c.stopProfiles != nil {
			fatalIf(c.stopProfiles())
		}
	}()
	cmd.run(c)
	return 0
}

// exit unwinds a subcommand to run with its exit status. Only fatalIf,
// usagef and cli.parse raise it, on the subcommand's own goroutine.
type exit struct {
	code int
	err  error
}

// fatalIf ends the subcommand with status 1 when err is set.
func fatalIf(err error) {
	if err != nil {
		panic(exit{1, err})
	}
}

// usagef ends the subcommand with status 2: the message, then its usage.
func usagef(format string, args ...any) {
	panic(exit{2, fmt.Errorf(format, args...)})
}

// cli is one subcommand invocation: its flag set and arguments, its output
// streams, and the context Ctrl-C cancels. Its methods bind the flags that
// several subcommands share, so each of those has one name, usage and
// default.
type cli struct {
	ctx            context.Context
	fs             *flag.FlagSet
	args           []string
	stdout, stderr io.Writer

	cpuProfile, memProfile *string
	stopProfiles           func() error
}

// parse parses the subcommand's arguments and, if it bound the profile
// flags, starts the profiles; run stops them when the subcommand returns.
func (c *cli) parse() {
	if err := c.fs.Parse(c.args); err != nil {
		// The flag set has reported the error, or printed the help asked for.
		code := 2
		if errors.Is(err, flag.ErrHelp) {
			code = 0
		}
		panic(exit{code: code})
	}
	if c.cpuProfile != nil {
		stop, err := harness.StartProfiles(*c.cpuProfile, *c.memProfile)
		fatalIf(err)
		c.stopProfiles = stop
	}
}

func (c *cli) seed() *uint64 { return c.fs.Uint64("seed", 42, "random seed") }

func (c *cli) tasks() *int {
	return c.fs.Int("tasks", 0, "synthetic task count (0 = paper's 1000)")
}

func (c *cli) jobs() *int {
	return c.fs.Int("j", 0, "simulations or replays to run concurrently (0 = GOMAXPROCS, 1 = sequential)")
}

func (c *cli) workflow() *string {
	return c.fs.String("workflow", "normal", "workload: "+strings.Join(workflow.Names(), ", "))
}

// algorithm binds -algorithm, whose default differs by subcommand: run
// uses one algorithm by default, whatif every registered one ("").
func (c *cli) algorithm(def string) *string {
	return c.fs.String("algorithm", def, "allocation algorithm, or a comma-separated list of them")
}

func (c *cli) model() *string {
	return c.fs.String("model", sim.RampEarly.String(), "consumption model: ramp-early, ramp-linear, peak-at-end, peak-immediate")
}

func (c *cli) des() *bool {
	return c.fs.Bool("des", false, "run the discrete-event pool simulation instead of the sequential driver")
}

func (c *cli) csv() *bool {
	return c.fs.Bool("csv", false, "write CSV instead of the default format")
}

func (c *cli) profiles() {
	c.cpuProfile = c.fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	c.memProfile = c.fs.String("memprofile", "", "write a heap profile to this file on exit")
}

// parseAlgorithms resolves a comma-separated allocator list.
func parseAlgorithms(s string) []allocator.Name {
	var out []allocator.Name
	for _, part := range strings.Split(s, ",") {
		name, err := allocator.ParseName(strings.TrimSpace(part))
		fatalIf(err)
		out = append(out, name)
	}
	return out
}
