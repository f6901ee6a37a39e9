package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env locates the repository and the harness's output tree. The harness
// runs from the benchmark directory (run.sh and `go run -C benchmark .`
// both arrange that), so the repository root is its parent.
type env struct {
	Root string // repository root, absolute
	Out  string // benchmark/out, absolute
}

func newEnv() (env, error) {
	wd, err := os.Getwd()
	if err != nil {
		return env{}, err
	}
	root := filepath.Dir(wd)
	if _, err := os.Stat(filepath.Join(root, "cmd", "similarityatscale")); err != nil {
		return env{}, fmt.Errorf("the harness must run from the repository's benchmark directory: %w", err)
	}
	return env{Root: root, Out: filepath.Join(wd, "out")}, nil
}

func (e env) bin(name string) string { return filepath.Join(e.Out, "bin", name) }

// buildBinaries compiles the shipped binaries the workloads drive into
// benchmark/out/bin. A warm build cache makes this a sub-second no-op.
func (e env) buildBinaries(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", filepath.Join(e.Out, "bin")+string(filepath.Separator),
		"./cmd/similarityatscale", "./cmd/similarityd")
	cmd.Dir = e.Root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building the shipped binaries: %w\n%s", err, out)
	}
	return nil
}

// procResult is what one finished process left behind.
type procResult struct {
	Stdout []byte
	Stderr []byte
	RSSMB  float64 // ru_maxrss
}

// rssWrapFlag selects the harness's wrapper mode (see rssWrap).
const rssWrapFlag = "-rss-wrap"

// rssWrap is the harness re-executed as a tiny launcher: it runs the given
// program with its own stdio, waits, writes the child's ru_maxrss in KiB to
// file descriptor 3 and exits with the child's status. It exists because a
// child's ru_maxrss starts at the resident size of the process that spawned
// it (the kernel folds the pre-exec address space into the figure), and the
// harness itself holds hundreds of megabytes of generated inputs; spawned
// from this few-megabyte launcher the figure is the program's own peak.
func rssWrap(args []string) int {
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	// The harness stops a run by killing this launcher; the program must
	// not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err := cmd.Run()
	if cmd.ProcessState == nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 127
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		report := os.NewFile(3, "rss-report")
		fmt.Fprintln(report, ru.Maxrss) // Linux reports KiB
		report.Close()
	}
	return cmd.ProcessState.ExitCode()
}

// runProc runs a program through the rssWrap launcher and returns its
// output and peak resident size.
func runProc(ctx context.Context, path string, args []string) (procResult, error) {
	self, err := os.Executable()
	if err != nil {
		return procResult{}, err
	}
	reportR, reportW, err := os.Pipe()
	if err != nil {
		return procResult{}, err
	}
	defer reportR.Close()
	cmd := exec.CommandContext(ctx, self, append([]string{rssWrapFlag, path}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.ExtraFiles = []*os.File{reportW}
	err = cmd.Run()
	reportW.Close()
	res := procResult{Stdout: stdout.Bytes(), Stderr: stderr.Bytes()}
	if report, rerr := io.ReadAll(reportR); rerr == nil {
		if kib, perr := strconv.ParseFloat(strings.TrimSpace(string(report)), 64); perr == nil {
			res.RSSMB = kib / 1024
		}
	}
	if err != nil {
		return res, fmt.Errorf("%s: %w: %s", filepath.Base(path), err, bytes.TrimSpace(res.Stderr))
	}
	if res.RSSMB == 0 {
		return res, fmt.Errorf("%s: no ru_maxrss reported", filepath.Base(path))
	}
	return res, nil
}

// solveResult is one batch solve: the wall time from the first process
// start to the last exit, the largest ru_maxrss, and rank 0's output.
type solveResult struct {
	Seconds float64
	RSSMB   float64
	Stdout  []byte
}

// solvePaths names the files one solve writes.
type solvePaths struct {
	Stats string // -stats-json
	TSV   string // -output (matrixTSV workloads)
	Index string // -index-out (BatchIsCorpus workloads)
}

// solveArgs assembles the similarityatscale command line of a workload.
func solveArgs(w workload, dir string, p solvePaths) []string {
	args := []string{"-m", strconv.FormatUint(w.Batch.M, 10), "-dir", dir, "-pattern", "*.smp"}
	args = append(args, w.flags()...)
	args = append(args, "-stats-json", p.Stats)
	if w.Output == matrixTSV {
		args = append(args, "-output", p.TSV)
	}
	if w.BatchIsCorpus {
		args = append(args, "-index-out", p.Index, "-index-sketch-k", strconv.Itoa(w.Serve.SketchK))
	}
	return args
}

// solve runs one batch solve of the workload with the shipped binary: a
// single process, or w.Ranks TCP rank processes started together.
func (e env) solve(ctx context.Context, w workload, dir string, p solvePaths) (solveResult, error) {
	bin := e.bin("similarityatscale")
	args := solveArgs(w, dir, p)
	if w.Ranks <= 1 {
		start := time.Now()
		res, err := runProc(ctx, bin, args)
		return solveResult{Seconds: time.Since(start).Seconds(), RSSMB: res.RSSMB, Stdout: res.Stdout}, err
	}
	peers, err := freeLoopbackAddrs(w.Ranks)
	if err != nil {
		return solveResult{}, err
	}
	args = append(args, "-transport", "tcp", "-peers", strings.Join(peers, ","))
	results := make([]procResult, w.Ranks)
	errs := make([]error, w.Ranks)
	var wg sync.WaitGroup
	start := time.Now()
	for r := 0; r < w.Ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = runProc(ctx, bin, append(append([]string(nil), args...), "-rank", strconv.Itoa(r)))
		}(r)
	}
	wg.Wait()
	out := solveResult{Seconds: time.Since(start).Seconds(), Stdout: results[0].Stdout}
	for r, res := range results {
		out.RSSMB = max(out.RSSMB, res.RSSMB)
		if errs[r] != nil {
			return out, fmt.Errorf("rank %d: %w", r, errs[r])
		}
	}
	return out, nil
}

// freeLoopbackAddrs reserves n loopback ports by listening on port 0 and
// releases them for the rank processes to bind.
func freeLoopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range listeners {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// server is a running similarityd process.
type server struct {
	cmd    *exec.Cmd
	URL    string
	ReadyS float64 // exec → first 200 from /healthz
	stdout *bytes.Buffer
	stderr *bytes.Buffer
	logEOF chan struct{}
}

var servingLine = regexp.MustCompile(`similarityd: serving .* on (\S+)`)

// startServer execs similarityd on the index with an ephemeral port, reads
// the bound address from its first log line and polls /healthz until it
// answers 200.
func (e env) startServer(ctx context.Context, indexPath string) (*server, error) {
	cmd := exec.Command(e.bin("similarityd"), "-index", indexPath, "-addr", "127.0.0.1:0")
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, stdout: new(bytes.Buffer), stderr: new(bytes.Buffer), logEOF: make(chan struct{})}
	cmd.Stderr = s.stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addrCh := make(chan string, 1)
	go func() {
		defer close(s.logEOF)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			s.stdout.WriteString(line + "\n")
			if m := servingLine.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	fail := func(err error) (*server, error) {
		s.kill()
		return nil, fmt.Errorf("similarityd did not come up: %w: %s", err, bytes.TrimSpace(s.stderr.Bytes()))
	}
	select {
	case addr := <-addrCh:
		s.URL = "http://" + addr
	case <-s.logEOF:
		return fail(fmt.Errorf("exited before logging its address"))
	case <-time.After(30 * time.Second):
		return fail(fmt.Errorf("no address within 30s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	for {
		resp, err := http.Get(s.URL + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 30*time.Second {
			return fail(fmt.Errorf("no 200 from /healthz within 30s"))
		}
		time.Sleep(time.Millisecond)
	}
	s.ReadyS = time.Since(start).Seconds()
	return s, nil
}

// peakRSSMB reads the server's resident-size high-water mark (VmHWM) from
// /proc. It is the quantity ru_maxrss reports at exit, but counted from
// the exec only — see rssWrap for why the exit-time figure cannot be used,
// and the server is started directly so the launcher does not inflate
// ready_s.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kib / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// stop reads the server's peak resident size, sends SIGTERM and waits for
// the graceful drain. A server that does not report a clean drain is an
// error. The process has ended when stop returns, whatever it returns.
func (s *server) stop() (float64, error) {
	rss, err := s.peakRSSMB()
	if err == nil {
		err = s.cmd.Process.Signal(syscall.SIGTERM)
	}
	if err != nil {
		s.kill()
		return 0, err
	}
	<-s.logEOF
	err = s.cmd.Wait()
	if err != nil {
		return rss, fmt.Errorf("similarityd: %w: %s", err, bytes.TrimSpace(s.stderr.Bytes()))
	}
	if !strings.Contains(s.stdout.String(), "drained, exiting") {
		return rss, fmt.Errorf("similarityd exited without draining: %s", s.stdout.String())
	}
	return rss, nil
}

// kill tears the server down on an error path.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.logEOF
	s.cmd.Wait()
}
