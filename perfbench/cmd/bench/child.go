package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/bgpsim/bgpsim/perfbench/lib/workload"
)

// child is a program binary run as a child process whose standard error
// is read line by line as it arrives.
type child struct {
	cmd     *exec.Cmd
	started time.Time
	done    chan struct{} // closed when both output readers have finished
	stdout  strings.Builder

	mu    sync.Mutex
	lines []string // stderr lines not consumed by onLine
}

// startChild starts bin with args. onLine, when non-nil, sees every
// stderr line as it arrives (on the reader goroutine) and returns
// whether it consumed it. The child runs with GOMAXPROCS set to the
// benchmark's Procs.
func startChild(bin string, args []string, onLine func(string) bool) (*child, error) {
	c := &child{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	c.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", workload.Procs))
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.started = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if onLine != nil && onLine(line) {
				continue
			}
			c.mu.Lock()
			c.lines = append(c.lines, line)
			c.mu.Unlock()
		}
		// Drain whatever an over-long line left so the child never blocks.
		_, _ = io.Copy(io.Discard, stderr)
	}()
	go func() {
		defer wg.Done()
		_, _ = io.Copy(&c.stdout, stdout)
	}()
	go func() {
		wg.Wait()
		close(c.done)
	}()
	return c, nil
}

// stderrLines returns the unconsumed stderr lines so far.
func (c *child) stderrLines() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.lines...)
}

// wait waits for the child to exit, killing it after timeout.
func (c *child) wait(timeout time.Duration) error {
	select {
	case <-c.done:
	case <-time.After(timeout):
		_ = c.cmd.Process.Kill()
		<-c.done
		_ = c.cmd.Wait()
		return fmt.Errorf("%s did not exit within %v", c.cmd.Path, timeout)
	}
	return c.cmd.Wait()
}

// stop sends SIGTERM and waits for the child to exit.
func (c *child) stop(timeout time.Duration) error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	return c.wait(timeout)
}

// tail is the last stderr lines, for error reports.
func (c *child) tail() string {
	l := c.stderrLines()
	if len(l) > 5 {
		l = l[len(l)-5:]
	}
	return strings.Join(l, "\n")
}
