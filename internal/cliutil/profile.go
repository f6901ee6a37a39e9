package cliutil

import (
	"errors"
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// ProfileFlags binds the opt-in profiling flags of the compute CLIs:
// -cpuprofile records a CPU profile of the whole run and -memprofile
// writes a heap profile when it ends, both in the gzipped pprof format
// `go tool pprof` reads. Unset, they write nothing.
type ProfileFlags struct {
	CPU *string
	Mem *string
}

// BindProfile registers the profiling flags on fs.
func BindProfile(fs *flag.FlagSet) *ProfileFlags {
	return &ProfileFlags{
		CPU: fs.String("cpuprofile", "", "write a CPU profile of the run to this file (pprof format; empty = off)"),
		Mem: fs.String("memprofile", "", "write a heap profile to this file when the run ends (pprof format; empty = off)"),
	}
}

// Start begins the CPU profile when -cpuprofile is set. The returned stop
// function ends it and then writes the heap profile when -memprofile is
// set; it returns every error of the two, the files' close errors
// included. Callers defer stop once Start succeeds.
func (f *ProfileFlags) Start() (stop func() error, err error) {
	var cpu *os.File
	if *f.CPU != "" {
		if cpu, err = os.Create(*f.CPU); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			return nil, errors.Join(err, cpu.Close())
		}
	}
	return func() error {
		var err error
		if cpu != nil {
			pprof.StopCPUProfile()
			err = cpu.Close()
		}
		if *f.Mem != "" {
			err = errors.Join(err, writeHeapProfile(*f.Mem))
		}
		return err
	}, nil
}

// writeHeapProfile writes the heap profile to path after a collection, so
// the in-use figures describe the heap as the run leaves it.
func writeHeapProfile(path string) (err error) {
	fl, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := fl.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	runtime.GC()
	return pprof.WriteHeapProfile(fl)
}
