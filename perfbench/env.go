package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// baseEnv fills the fields every workload prints: the host, the build
// and the run's own settings. Workloads add their sizes, loop type and
// engine settings after it.
func baseEnv(o runOpts) envBlock {
	var e envBlock
	e.add("workload", o.workload)
	e.add("seed", fmt.Sprint(o.seed))
	e.add("run_seconds", fmt.Sprint(o.seconds))
	e.add("traced", fmt.Sprint(o.trace))
	e.add("nproc", fmt.Sprint(runtime.NumCPU()))
	e.add("gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0)))
	e.add("go_version", runtime.Version())
	e.add("goos_goarch", runtime.GOOS+"/"+runtime.GOARCH)
	e.add("git_commit", gitCommit())
	e.add("setup_reps", fmt.Sprint(o.setupReps))
	return e
}

// gitCommit reads the revision the toolchain stamped into the binary;
// a build made outside a git checkout has none.
func gitCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unknown"
}
