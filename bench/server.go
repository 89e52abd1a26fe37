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
	"sync"
	"syscall"
	"time"
)

// The serve workloads measure the real binary, socket to socket: the
// benchmark builds ./cmd/moma-serve once per checkout and runs it as a
// subprocess in its own process group, fed only with generated CSVs.

// buildServe compiles cmd/moma-serve into dir and returns the binary path.
func buildServe(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "moma-serve")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/moma-serve").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build repro/cmd/moma-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before moma-serve binds it, so another process could take the port
// in between; the readiness wait then fails and the run with it.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// liveServers are the servers started and not yet stopped, so that a fatal
// exit can kill their process groups.
var liveServers struct {
	sync.Mutex
	set map[*server]bool
}

// killAllServers kills every running server's process group. It is the
// last thing a failing benchmark does: no moma-serve is left orphaned.
func killAllServers() {
	liveServers.Lock()
	defer liveServers.Unlock()
	for s := range liveServers.set {
		s.killGroup()
	}
}

// server is one running moma-serve.
type server struct {
	cmd    *exec.Cmd
	url    string
	logf   *os.File
	exited chan struct{} // closed once cmd.Wait returned
	werr   error         // cmd.Wait's result, valid after exited
}

const (
	readyTimeout = 60 * time.Second
	readyPoll    = 2 * time.Millisecond
	stopTimeout  = 15 * time.Second
)

// startServer runs bin with args on a free port and waits until /readyz
// answers 200. It returns the server and the time from exec to ready —
// CSV load and resolver registration included.
func startServer(bin, logPath string, args ...string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, errors.Join(err, logf.Close())
	}
	s := &server{cmd: cmd, url: "http://" + addr, logf: logf, exited: make(chan struct{})}
	go func() {
		s.werr = cmd.Wait()
		close(s.exited)
	}()
	liveServers.Lock()
	if liveServers.set == nil {
		liveServers.set = map[*server]bool{}
	}
	liveServers.set[s] = true
	liveServers.Unlock()

	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(readyTimeout)
	for {
		resp, err := probe.Get(s.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		select {
		case <-s.exited:
			s.forget()
			return nil, 0, fmt.Errorf("moma-serve exited before it was ready (%v):\n%s", s.werr, s.logTail())
		case <-time.After(readyPoll):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, 0, fmt.Errorf("moma-serve not ready after %v:\n%s", readyTimeout, s.logTail())
		}
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

func (s *server) forget() {
	liveServers.Lock()
	delete(liveServers.set, s)
	liveServers.Unlock()
	if err := s.logf.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: closing %s: %v\n", s.logf.Name(), err)
	}
}

func (s *server) killGroup() {
	// The negative pid addresses the process group Setpgid created.
	_ = syscall.Kill(-s.pid(), syscall.SIGKILL) // the group may already be gone
}

// kill ends the server at once and waits for it.
func (s *server) kill() {
	s.killGroup()
	<-s.exited
	s.forget()
}

// stop asks for the graceful drain (SIGTERM) and waits for a clean exit;
// a server that does not drain in time, or exits non-zero, is an error (and
// is killed).
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		s.kill()
		return err
	}
	select {
	case <-s.exited:
		tail := s.logTail()
		s.forget()
		if s.werr != nil {
			return fmt.Errorf("moma-serve exited uncleanly after SIGTERM: %v\n%s", s.werr, tail)
		}
		return nil
	case <-time.After(stopTimeout):
		tail := s.logTail()
		s.kill()
		return fmt.Errorf("moma-serve did not drain within %v of SIGTERM\n%s", stopTimeout, tail)
	}
}

// logTail returns the end of the server's output for error messages.
func (s *server) logTail() string {
	b, err := os.ReadFile(s.logf.Name())
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// scrape reads the server's Prometheus metrics.
func (s *server) scrape(c *http.Client) (promSample, error) {
	resp, err := c.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// serverMem is the part of /debug/vars the benchmark reads.
type serverMem struct {
	TotalAlloc float64
	NumGC      float64
}

func (s *server) memstats(c *http.Client) (serverMem, error) {
	var vars struct {
		Memstats serverMem `json:"memstats"`
	}
	resp, err := c.Get(s.url + "/debug/vars")
	if err != nil {
		return serverMem{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serverMem{}, fmt.Errorf("GET /debug/vars: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&vars)
	return vars.Memstats, err
}
