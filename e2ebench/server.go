package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Server is one spawned kgserver process.
type Server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	client *http.Client
	stderr bytes.Buffer
	exited chan struct{} // closed once the process is reaped
	// Setup is the time from spawning the process until /healthz first
	// answered 200.
	Setup time.Duration
}

// spawn starts the kgserver binary with args plus a free loopback port and
// waits until /healthz answers 200. The process is killed if the benchmark
// dies first (Pdeathsig) and always reaped by Stop.
func spawn(bin string, args []string, conns int) (*Server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	s := &Server{
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	s.cmd = exec.Command(bin, append(args, "-addr", addr)...)
	s.cmd.Stderr = &s.stderr
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s.exited = make(chan struct{})
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	deadline := start.Add(120 * time.Second)
	for {
		select {
		case <-s.exited:
			return nil, fmt.Errorf("kgserver exited during start-up: %s", strings.TrimSpace(s.stderr.String()))
		default:
		}
		if s.healthy() {
			s.Setup = time.Since(start)
			break
		}
		if time.Now().After(deadline) {
			s.Stop()
			return nil, fmt.Errorf("kgserver not healthy after 120s: %s", strings.TrimSpace(s.stderr.String()))
		}
		time.Sleep(200 * time.Microsecond)
	}
	return s, nil
}

func (s *Server) healthy() bool {
	resp, err := s.client.Get(s.base + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// logTail is the end of the server's standard error, for error reports.
// Call it only once the process has exited or from the goroutine that
// waits for it.
func (s *Server) logTail() string {
	select {
	case <-s.exited:
	case <-time.After(2 * time.Second):
		return "(server still running)"
	}
	b := s.stderr.String()
	// A crash prints its cause first and then every goroutine's stack.
	for _, mark := range []string{"panic:", "fatal error:", "unexpected fault"} {
		if i := strings.Index(b, mark); i >= 0 {
			b = b[i:]
			break
		}
	}
	if len(b) > 2000 {
		b = b[:2000]
	}
	return strings.TrimSpace(b)
}

// Stop kills the process and waits until it has exited.
func (s *Server) Stop() {
	s.cmd.Process.Kill()
	<-s.exited
	s.client.CloseIdleConnections()
}

// PeakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (s *Server) PeakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// Health fetches /healthz.
func (s *Server) Health(ctx context.Context) (map[string]any, error) {
	var out map[string]any
	_, err := s.do(ctx, http.MethodGet, "/healthz", nil, &out)
	return out, err
}

// HTTPError is a non-2xx answer.
type HTTPError struct {
	Code int
	Body string
}

func (e *HTTPError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.Code, e.Body) }

// do sends one request and decodes a 2xx JSON answer into out. It returns
// the response size in bytes.
func (s *Server) do(ctx context.Context, method, path string, body any, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return len(data), err
	}
	if resp.StatusCode/100 != 2 {
		return len(data), &HTTPError{Code: resp.StatusCode, Body: strings.TrimSpace(string(data))}
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return len(data), fmt.Errorf("decode %s: %w", path, err)
		}
	}
	return len(data), nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// ChartResponse is the subset of the server's chart answer the benchmark
// reads.
type ChartResponse struct {
	Millis int64 `json:"millis"`
	Bars   []Bar `json:"bars"`
}

// IngestResponse acknowledges one batch.
type IngestResponse struct {
	Applied int    `json:"applied"`
	Gen     uint64 `json:"gen"`
}
