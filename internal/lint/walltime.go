package lint

import (
	"go/ast"
	"go/types"
)

// Walltime forbids reading or waiting on the wall clock. The whole
// simulator advances on the virtual clock owned by simnet.Scheduler —
// a single time.Now in a sim path silently couples results to host
// load and makes the chaos-smoke goldens irreproducible. Host-side
// harness code (bench/'s timing spans, cmd/ tooling) annotates its few
// legitimate uses with //meshvet:allow walltime <reason>.
//
// Banned: time.Now, Since, Until, Sleep, After, AfterFunc, Tick,
// NewTimer, NewTicker. time.Duration arithmetic and constants remain
// free — they are units, not clocks.
var Walltime = &Analyzer{
	Name: "walltime",
	Doc:  "forbid wall-clock reads and timers (time.Now, time.Sleep, ...) in simulation code",
	Run:  runWalltime,
}

var bannedTime = map[string]string{
	"Now":       "reads the wall clock",
	"Since":     "reads the wall clock",
	"Until":     "reads the wall clock",
	"Sleep":     "blocks on the wall clock",
	"After":     "schedules on the wall clock",
	"AfterFunc": "schedules on the wall clock",
	"Tick":      "schedules on the wall clock",
	"NewTimer":  "schedules on the wall clock",
	"NewTicker": "schedules on the wall clock",
}

func runWalltime(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.Info.Uses[id]
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			why, banned := bannedTime[fn.Name()]
			if !banned {
				return true
			}
			pass.Reportf(id.Pos(),
				"time.%s %s; sim code must use the scheduler's virtual clock (annotate host-side code with //meshvet:allow walltime <reason>)",
				fn.Name(), why)
			return true
		})
	}
}
