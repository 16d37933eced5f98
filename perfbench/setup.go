package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const tinyProgram = "PROGRAM tiny\nINTEGER x\nx = 7\nPRINT x\nEND\n"

// system is one set-up copy of the system under test: freshly built
// binaries, a compiled-optimizer artifact in a benchmark-owned directory,
// and a running optd serving from it.
type system struct {
	root      string // checkout root: every binary runs here
	dir       string
	opt       string
	optdBin   string
	nativeDir string
	optd      *optdProc
}

// setUp builds and starts one system under dir. Every step is part of
// setup_s: build both binaries, build the artifact into a fresh directory
// through opt -engine compiled, generate the inputs, start optd and wait
// until it serves from the compiled artifact.
func setUp(root, dir string, w *workload, seed int64) (*system, *inputSet, time.Duration, error) {
	start := time.Now()
	s := &system{root: root, dir: dir,
		opt: filepath.Join(dir, "bin", "opt"), optdBin: filepath.Join(dir, "bin", "optd"),
		nativeDir: filepath.Join(dir, "native")}
	build := exec.Command("go", "build", "-o", filepath.Join(dir, "bin")+string(os.PathSeparator), "./cmd/opt", "./cmd/optd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, nil, 0, fmt.Errorf("building opt and optd: %v\n%s", err, out)
	}
	tiny := filepath.Join(dir, "tiny.mf")
	if err := os.WriteFile(tiny, []byte(tinyProgram), 0o644); err != nil {
		return nil, nil, 0, err
	}
	art := exec.Command(s.opt, "-engine", "compiled", "-native-dir", s.nativeDir,
		"-opts", strings.Join(w.passes, ","), "-minif", tiny)
	art.Dir = root
	if out, err := art.CombinedOutput(); err != nil {
		return nil, nil, 0, fmt.Errorf("building the compiled artifact: %v\n%s", err, out)
	}
	in, err := generate(w, root, seed)
	if err != nil {
		return nil, nil, 0, err
	}
	s.optd, err = startOptd(s)
	if err != nil {
		return nil, nil, 0, err
	}
	return s, in, time.Since(start), nil
}

type optdProc struct {
	cmd    *exec.Cmd
	base   string
	done   chan struct{} // closed once optd has exited and its log is written
	client *http.Client
	log    bytes.Buffer // optd's output; written only by exec's copier
}

func startOptd(s *system) (*optdProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(s.optdBin, "-addr", addr, "-engine", "auto",
		"-native-dir", s.nativeDir, "-jobs-dir", filepath.Join(s.dir, "jobs"))
	cmd.Dir = s.root
	// optd logs one line per request. It writes them into a pipe, as under
	// a service manager, and the benchmark writes them out when optd has
	// exited: file writes would add the disk's latency to every request.
	p := &optdProc{cmd: cmd, base: "http://" + addr, done: make(chan struct{}), client: newClient()}
	cmd.Stdout, cmd.Stderr = &p.log, &p.log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	logPath := filepath.Join(s.dir, "optd.log")
	go func() {
		cmd.Wait()
		os.WriteFile(logPath, p.log.Bytes(), 0o644)
		close(p.done)
	}()
	if err := p.awaitCompiled(60 * time.Second); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

// awaitCompiled polls until optd answers and serves a cache-bypassing
// request from the compiled plugin.
func (p *optdProc) awaitCompiled(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	body, _ := json.Marshal(map[string]any{"source": tinyProgram, "opts": []string{"CTP"}, "no_cache": true})
	last := "no response"
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("optd exited during start-up: %v", p.cmd.ProcessState)
		default:
		}
		resp, err := p.client.Post(p.base+"/v1/optimize", "application/json", bytes.NewReader(body))
		if err == nil {
			var r struct {
				Engine string `json:"engine"`
			}
			json.NewDecoder(resp.Body).Decode(&r)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && r.Engine == "compiled-plugin" {
				return nil
			}
			last = fmt.Sprintf("status %d, engine %q", resp.StatusCode, r.Engine)
		} else {
			last = err.Error()
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("optd did not reach compiled serving within %v (last: %s)", limit, last)
}

// peakRSSMB reads the process's resident-set high-water mark.
func (p *optdProc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop asks optd to drain, and kills it if it has not exited in time. It
// returns once the process is gone.
func (p *optdProc) stop() {
	if p == nil {
		return
	}
	p.client.CloseIdleConnections()
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

func (s *system) stop() {
	if s != nil {
		s.optd.stop()
	}
}
