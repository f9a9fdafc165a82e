package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"contextpref"
	"contextpref/internal/journal"
)

// buildServer compiles cmd/cpserver from the checkout at root into out.
func buildServer(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/cpserver")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building cpserver: %w", err)
	}
	return nil
}

// server is one running cpserver child process.
type server struct {
	cmd    *exec.Cmd
	exited chan error // receives cmd.Wait's result once
	base   string
	log    *os.File
}

// freePort asks the kernel for an unused loopback port. The port is
// released before cpserver binds it; on loopback nothing else races
// for it in practice, and a lost race fails the start loudly.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs cpserver with args on a fresh loopback port,
// logging to logPath.
func startServer(bin string, args []string, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting cpserver: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan error, 1), base: "http://" + addr, log: logf}
	go func() { s.exited <- cmd.Wait() }()
	return s, nil
}

// waitReady polls /readyz on client c until it answers 200, the process
// exits, or the timeout passes.
func (s *server) waitReady(c *http.Client, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, "GET", s.base+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := c.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case err := <-s.exited:
			s.exited <- err // keep the result for stop
			if err == nil {
				err = errors.New("exit status 0")
			}
			return fmt.Errorf("cpserver exited before it was ready (log %s): %w", s.log.Name(), err)
		case <-ctx.Done():
			return fmt.Errorf("cpserver not ready after %s; log: %s", timeout, s.log.Name())
		case <-time.After(time.Millisecond):
		}
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// stop kills the process and waits until it has exited. The benchmark
// needs nothing from a graceful drain, and a kill leaves a store exactly
// as the last acknowledged write left it.
func (s *server) stop() {
	_ = s.cmd.Process.Kill() // fails only if the process already exited, which the wait below absorbs
	<-s.exited
	s.log.Close()
}

// writeStore writes the workload's profiles into a fresh store at dir,
// shaped as cpserver itself would have journaled their uploads.
func writeStore(dir string, in *inputs) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if in.w.shards > 1 {
		if err := os.WriteFile(filepath.Join(dir, "SHARDS"), []byte(strconv.Itoa(in.w.shards)+"\n"), 0o644); err != nil {
			return err
		}
	}
	return withStore(dir, in.w.shards, nil, func(ps []contextpref.Persister) error {
		return appendHistory(ps, in, nil, nil)
	})
}

// withStore opens the store's journals (one per shard segment, or the
// root journal when unsharded) with metrics m, hands f a persister per
// shard, and closes them.
func withStore(dir string, shards int, m *journal.Metrics, f func([]contextpref.Persister) error) (err error) {
	js, _, err := openStore(dir, shards, m)
	if err != nil {
		return err
	}
	defer func() {
		for _, j := range js {
			if cerr := j.Close(); err == nil {
				err = cerr
			}
		}
	}()
	ps := make([]contextpref.Persister, len(js))
	for i, j := range js {
		ps[i] = contextpref.NewJournalPersister(j)
	}
	return f(ps)
}

// openStore opens every journal of a store the way cpserver lays it out
// and returns them with their recovered records, per shard.
func openStore(dir string, shards int, m *journal.Metrics) ([]*journal.Journal, [][]journal.Record, error) {
	var js []*journal.Journal
	var recs [][]journal.Record
	for i := 0; i < shards; i++ {
		d := dir
		if shards > 1 {
			d = filepath.Join(dir, journal.ShardDir(i))
		}
		j, r, err := journal.Open(d)
		if err != nil {
			for _, o := range js {
				o.Close()
			}
			return nil, nil, fmt.Errorf("opening store %s: %w", d, err)
		}
		j.SetMetrics(m)
		js = append(js, j)
		recs = append(recs, r)
	}
	return js, recs, nil
}

// upload loads every profile through POST /preferences, one at a time on
// one connection. Parsing an upload is CPU-bound; two parallel uploads
// saturated both cores of the reference host, and that setup time then
// moved by more than half whenever a neighbour took one core, against a
// few percent for the sequential upload.
func upload(s *sender) error {
	for u, name := range s.in.users {
		if _, err := s.call(0, "POST", "/preferences?user="+name, []byte(s.in.texts[u])); err != nil {
			return err
		}
	}
	return nil
}
