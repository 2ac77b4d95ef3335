package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"trilist/internal/server"
)

// daemon is one trid process and the benchmark's single keep-alive
// connection to it.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{} // closed once stdout is drained and the process reaped
	err    error         // Wait's result, valid after exited
}

// startDaemon runs bin on a free loopback port and returns once it
// listens. The process is killed if the benchmark dies first.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting trid: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.exited)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "trid listening on "); ok {
				addr <- a
			}
		}
		d.err = cmd.Wait()
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, fmt.Errorf("trid exited before listening: %v", d.err)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("trid did not listen within 30s")
	}
	d.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
	return d, nil
}

// stop drains trid with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.exited:
		return d.err
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("trid did not drain within 30s")
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.exited
}

// post sends body and decodes the JSON response into out.
func (d *daemon) post(path string, body []byte, want int, out any) error {
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// graphInfo is the part of trid's registration response the benchmark
// reads.
type graphInfo struct {
	ID string `json:"id"`
}

// register uploads a graph body. Every registration the benchmark makes
// must miss the registry (201), or the op did not measure ingestion.
func (d *daemon) register(body []byte) (string, error) {
	var info graphInfo
	err := d.post("/v1/graphs", body, http.StatusCreated, &info)
	return info.ID, err
}

// job submits spec with wait:true and returns the final job view.
func (d *daemon) job(spec server.JobSpec) (*server.JobView, error) {
	spec.Wait = true
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var v server.JobView
	if err := d.post("/v1/jobs", body, http.StatusOK, &v); err != nil {
		return nil, err
	}
	return &v, nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
