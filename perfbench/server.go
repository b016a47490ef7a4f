package main

import (
	"bufio"
	"bytes"
	"context"
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
	"syscall"
	"time"

	"cpsinw/internal/service"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat
// (100 on every mainstream Linux build).
const clockTicks = 100

// server is one cpsinw-serve child process on a loopback port.
type server struct {
	cmd  *exec.Cmd
	base string        // http://127.0.0.1:<port>
	done chan struct{} // closed once the process has been reaped
}

// startServer launches the service binary with fresh flags and waits
// until /healthz answers. storeDir, when set, enables the durable result
// store and the dictionary store under it.
func startServer(ctx context.Context, bin, logPath, storeDir string, client *http.Client) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-debug-addr", "", "-log-level", "warn"}
	if storeDir != "" {
		args = append(args, "-result-dir", filepath.Join(storeDir, "results"), "-dict-dir", filepath.Join(storeDir, "dicts"))
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the load generator, even on SIGKILL.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	s := &server{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), done: make(chan struct{})}
	go func() { _ = cmd.Wait(); close(s.done) }()

	deadline := time.Now().Add(15 * time.Second)
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/healthz", nil)
		if resp, err := client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			out, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("server exited during start: %s", bytes.TrimSpace(out))
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("server not healthy within 15s")
		}
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop drains the server with SIGTERM and waits for it to exit,
// killing it if the drain takes longer than 15 s.
func (s *server) stop() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// cpu returns the server's user+system CPU time so far.
func (s *server) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := raw[bytes.LastIndexByte(raw, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSMB returns the server's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("VmHWM not found")
}

// scrapeMetrics reads the service's /metrics into "name{labels}" -> value.
func scrapeMetrics(ctx context.Context, client *http.Client, base string) (map[string]float64, error) {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// call sends one JSON request and decodes a 2xx JSON answer into out.
// Any other status, a refusal (503) included, is an error.
func call(ctx context.Context, client *http.Client, method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// waitTerminal follows the campaign's SSE stream to its end and returns
// the last frame, which the service guarantees is terminal.
func waitTerminal(ctx context.Context, client *http.Client, base, id string) (service.JobStatus, error) {
	var st service.JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		return st, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("events stream: HTTP %d", resp.StatusCode)
	}
	var last []byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if d, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: ")); ok {
			last = append(last[:0], d...)
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	if err := json.Unmarshal(last, &st); err != nil {
		return st, fmt.Errorf("events stream: last frame: %w", err)
	}
	if !st.State.Terminal() {
		return st, fmt.Errorf("events stream ended in state %q", st.State)
	}
	return st, nil
}
