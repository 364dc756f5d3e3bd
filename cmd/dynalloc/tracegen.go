package main

import (
	"fmt"
	"os"

	"dynalloc/internal/trace"
	"dynalloc/internal/workflow"
)

// tracegen generates an evaluation workload and writes it as a JSON trace
// (replayable with run -workflow-file) or as a CSV consumption series.
func tracegen(c *cli) {
	var (
		wfName = c.workflow()
		tasks  = c.tasks()
		seed   = c.seed()
		out    = c.fs.String("o", "", "output file (default stdout)")
		asCSV  = c.csv()
	)
	c.parse()

	w, err := workflow.ByName(*wfName, *tasks, *seed)
	fatalIf(err)
	var f *os.File
	dst := c.stdout
	if *out != "" {
		f, err = os.Create(*out)
		fatalIf(err)
		defer f.Close()
		dst = f
	}
	if *asCSV {
		err = trace.WriteCSV(dst, trace.Points(w))
	} else {
		err = trace.WriteWorkflow(dst, w)
	}
	fatalIf(err)
	if f != nil {
		fatalIf(f.Close())
		fmt.Fprintf(c.stderr, "wrote %s (%d tasks, %d categories)\n", *out, w.Len(), len(w.Categories()))
	}
}
