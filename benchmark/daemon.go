package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/subgeminid from the checkout at root into dir.
func buildDaemon(root, dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "subgeminid"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/subgeminid")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building subgeminid: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running subgeminid process with its own data directory.
type daemon struct {
	cmd     *exec.Cmd
	dataDir string
	logFile *os.File
	drained chan struct{} // closed once the daemon's stdout hits EOF
	h       *httpClient
}

// bootTimeout bounds how long a daemon may take to start listening.
const bootTimeout = 30 * time.Second

// startDaemon execs subgeminid with the benchmark's fixed flags on a
// loopback port and a fresh data directory under work, and returns once it
// listens and /readyz answers 200.  traced adds the flight-recorder flags
// that keep every request's timeline.  conns caps the client's connections.
func startDaemon(bin, work string, traced bool, conns int) (*daemon, error) {
	dataDir, err := os.MkdirTemp(work, "data-")
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", "127.0.0.1:0", "-data-dir", dataDir, "-globals", strings.Join(globals, ",")}
	if traced {
		args = append(args, "-flight-sample", "1", "-flight-recorder", "8192")
	}
	logFile, err := os.Create(dataDir + ".log")
	if err != nil {
		os.RemoveAll(dataDir)
		return nil, err
	}
	d := &daemon{cmd: exec.Command(bin, args...), dataDir: dataDir, logFile: logFile, drained: make(chan struct{})}
	d.cmd.Stderr = logFile
	// If the benchmark dies without stopping the daemon, the kernel kills it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		d.cleanup()
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		d.cleanup()
		return nil, fmt.Errorf("starting subgeminid: %w", err)
	}

	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				addr <- a
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	select {
	case a := <-addr:
		d.h = newHTTPClient("http://"+a, conns)
	case <-d.drained:
		d.stop()
		return nil, fmt.Errorf("subgeminid exited before listening; see %s", logFile.Name())
	case <-time.After(bootTimeout):
		d.stop()
		return nil, fmt.Errorf("subgeminid did not listen within %v", bootTimeout)
	}
	for deadline := time.Now().Add(bootTimeout); ; time.Sleep(time.Millisecond) {
		_, status, _, err := d.h.call(http.MethodGet, "/readyz", "", nil)
		if err == nil && status == http.StatusOK {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("subgeminid not ready within %v (status %d, %v)", bootTimeout, status, err)
		}
	}
}

// stop shuts the daemon down with SIGTERM (SIGKILL if it does not exit in
// time), waits for it, and removes its data directory.
func (d *daemon) stop() (err error) {
	if d.h != nil {
		d.h.close()
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.drained
		err = errors.New("subgeminid ignored SIGTERM; killed")
	}
	if werr := d.cmd.Wait(); werr != nil && err == nil {
		err = fmt.Errorf("subgeminid exit: %w; see %s", werr, d.logFile.Name())
	}
	if err == nil {
		d.cleanup()
	}
	return err
}

// rssEvery is the resident-set sampling interval.
const rssEvery = 100 * time.Millisecond

// sampleRSS samples the daemon's resident set size every rssEvery during
// the window that starts after warm, in the background.  The returned
// function waits for the window to end and returns the samples in MB.
func (d *daemon) sampleRSS(warm, window time.Duration) func() ([]float64, error) {
	done := make(chan []float64, 1)
	var firstErr error
	go func() {
		var xs []float64
		time.Sleep(warm)
		for end := time.Now().Add(window); time.Now().Before(end); time.Sleep(rssEvery) {
			v, err := d.rssMB()
			if err != nil {
				firstErr = err
				break
			}
			xs = append(xs, v)
		}
		done <- xs
	}()
	return func() ([]float64, error) {
		xs := <-done
		if firstErr != nil || len(xs) == 0 {
			return nil, fmt.Errorf("sampling daemon RSS: %v", firstErr)
		}
		return xs, nil
	}
}

// rssMB reads the daemon's current resident set size.
func (d *daemon) rssMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmRSS line")
}

// cleanup removes the data directory and, after a clean run, the log.
func (d *daemon) cleanup() {
	d.logFile.Close()
	os.RemoveAll(d.dataDir)
	os.Remove(d.logFile.Name())
}

// httpClient issues requests to one daemon over at most conns keep-alive
// connections.
type httpClient struct {
	c    *http.Client
	base string
}

func newHTTPClient(base string, conns int) *httpClient {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &httpClient{c: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, base: base}
}

// call issues one request and reads the whole response.  lat runs from just
// before the request is sent until its last body byte has arrived, so it
// excludes the client's own JSON decoding and checks.  A non-empty rid is
// sent as X-Request-Id.
func (h *httpClient) call(method, path, rid string, body []byte) (resp []byte, status int, lat time.Duration, err error) {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return nil, 0, 0, err
	}
	if rid != "" {
		req.Header.Set("X-Request-Id", rid)
	}
	start := time.Now()
	r, err := h.c.Do(req)
	if err != nil {
		return nil, 0, time.Since(start), err
	}
	resp, err = io.ReadAll(r.Body)
	lat = time.Since(start)
	r.Body.Close()
	return resp, r.StatusCode, lat, err
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }
