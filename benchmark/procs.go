package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sandbox owns everything a run leaves outside its own memory: one scratch
// directory and the child processes. It is their only owner: whoever is done
// with a set of children calls killAll. close is safe to call from any exit
// path, more than once.
type sandbox struct {
	binDir string
	dir    string
	mu     sync.Mutex
	procs  []*proc
}

func newSandbox(binDir, workDir string) (*sandbox, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	return &sandbox{binDir: binDir, dir: dir}, nil
}

// killAll ends every child started so far and forgets them.
func (sb *sandbox) killAll() {
	sb.mu.Lock()
	procs := sb.procs
	sb.procs = nil
	sb.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

func (sb *sandbox) close() {
	sb.killAll()
	os.RemoveAll(sb.dir)
}

// proc is one graphd or graphctl child, alone in its own process group so
// that kill takes anything it may have spawned with it.
type proc struct {
	cmd      *exec.Cmd
	httpAddr string
	wireAddr string
	exited   chan struct{}
	started  time.Time
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// start launches bin with args. Only the flags the issue lists may appear
// here (imports_test.go checks); everything else stays at its default.
func (sb *sandbox) start(bin string, httpAddr, wireAddr string, args ...string) (*proc, error) {
	cmd := exec.Command(filepath.Join(sb.binDir, bin), args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	logf, err := os.Create(filepath.Join(sb.dir, fmt.Sprintf("%s-%s.log", bin, strings.ReplaceAll(httpAddr, ":", "_"))))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd.Stderr = logf
	p := &proc{cmd: cmd, httpAddr: httpAddr, wireAddr: wireAddr, exited: make(chan struct{}), started: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		_ = cmd.Wait() // the exit status of a killed child carries no news
		close(p.exited)
	}()
	sb.mu.Lock()
	sb.procs = append(sb.procs, p)
	sb.mu.Unlock()
	return p, nil
}

func (sb *sandbox) startGraphd(n int32, snapshot string, shardIndex, shardCount int) (*proc, error) {
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	wireAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-listen", httpAddr, "-listen-wire", wireAddr, "-vertices", strconv.Itoa(int(n)), "-snapshot-interval", "0"}
	if snapshot != "" {
		args = append(args, "-snapshot", snapshot)
	}
	if shardCount > 1 {
		args = append(args, "-shard-index", strconv.Itoa(shardIndex), "-shard-count", strconv.Itoa(shardCount))
	}
	return sb.start("graphd", httpAddr, wireAddr, args...)
}

func (sb *sandbox) startGraphctl(n int32, shards []*proc) (*proc, error) {
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	wires := make([]string, len(shards))
	for i, s := range shards {
		wires[i] = s.wireAddr
	}
	return sb.start("graphctl", httpAddr, "", "-listen", httpAddr, "-vertices", strconv.Itoa(int(n)), "-shards", strings.Join(wires, ","))
}

// kill ends the process group at once and waits for the child. A child
// that has been reaped is left alone: its pid may be someone else's by now.
func (p *proc) kill() {
	select {
	case <-p.exited:
		return
	default:
	}
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) // exited since the check: its group is empty or gone
	<-p.exited
}

// term asks for a graceful shutdown (graphd drains and persists) and
// returns how long the child took to exit.
func (p *proc) term() (time.Duration, error) {
	t0 := time.Now()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	select {
	case <-p.exited:
		return time.Since(t0), nil
	case <-time.After(30 * time.Second):
		p.kill()
		return 0, errors.New("child ignored SIGTERM for 30s")
	}
}

var httpc = &http.Client{Timeout: 30 * time.Second}

// getJSON fetches url and decodes the body into out, whatever the status.
func getJSON(url string, out any) (int, error) {
	resp, err := httpc.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}

// waitReady polls /readyz until it answers 200 or the child dies.
func (p *proc) waitReady() error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited during start-up", p.cmd.Path)
		default:
		}
		if code, err := getJSON("http://"+p.httpAddr+"/readyz", nil); err == nil && code == http.StatusOK {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after 60s", p.cmd.Path)
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times. It
// is 100 on every Linux configuration Go supports.
const clockTick = 100

// cpuSeconds is the child's user+system CPU time so far.
func (p *proc) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", raw)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times in %q", raw)
	}
	return (ut + st) / clockTick, nil
}

// rssPeakMB is the child's peak resident set (VmHWM).
func (p *proc) rssPeakMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// memStats is the slice of runtime.MemStats the benchmark reads from a
// child's /debug/vars.
type memStats struct {
	TotalAlloc   uint64
	PauseTotalNs uint64
}

func (p *proc) memStats() (memStats, error) {
	var vars struct {
		Memstats memStats `json:"memstats"`
	}
	_, err := getJSON("http://"+p.httpAddr+"/debug/vars", &vars)
	return vars.Memstats, err
}

// usage sums CPU seconds and allocated bytes over the server-side processes.
func usage(procs []*proc) (cpu float64, alloc uint64, err error) {
	for _, p := range procs {
		c, err := p.cpuSeconds()
		if err != nil {
			return 0, 0, err
		}
		ms, err := p.memStats()
		if err != nil {
			return 0, 0, err
		}
		cpu += c
		alloc += ms.TotalAlloc
	}
	return cpu, alloc, nil
}
