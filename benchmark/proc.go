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
)

// child is a spawned process whose line protocol the driver gates on: it
// never sleeps waiting for a child, it waits for a line or for the exit.
type child struct {
	name  string
	cmd   *exec.Cmd
	stdin io.WriteCloser
	// lines carries the protocol stream (stdout of the worker, the
	// structured log on stderr of the broker).
	lines   chan string
	done    chan struct{}
	waitErr error
	logPath string

	stopOnce sync.Once
}

// startChild launches path. The protocol stream is stdout, or stderr when
// protoOnStderr is set; both streams are also appended to logPath.
func startChild(name, path string, args []string, logPath string, protoOnStderr bool) (*child, error) {
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(path, args...)
	// Crash dumps of the spawned binaries belong beside their log, inside
	// the run directory.
	cmd.Env = append(os.Environ(), "STRATA_FLIGHTREC_DIR="+logPath+".flightrec")
	// No child outlives the driver, however the driver ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		_ = logFile.Close()
		return nil, err
	}
	var proto io.ReadCloser
	if protoOnStderr {
		cmd.Stdout = logFile
		proto, err = cmd.StderrPipe()
	} else {
		cmd.Stderr = logFile
		proto, err = cmd.StdoutPipe()
	}
	if err != nil {
		_ = logFile.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		_ = logFile.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{
		name: name, cmd: cmd, stdin: stdin, logPath: logPath,
		// Protocol lines are sparse; when the buffer is full a line is
		// still logged, just not queued.
		lines: make(chan string, 256),
		done:  make(chan struct{}),
	}
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(proto)
		sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logFile, line)
			select {
			case c.lines <- line:
			default:
			}
		}
		close(c.lines)
	}()
	go func() {
		// Wait closes the pipe, so the scanner must be done reading first.
		<-scanned
		c.waitErr = cmd.Wait()
		_ = logFile.Close()
		close(c.done)
	}()
	return c, nil
}

// expect reads protocol lines until match accepts one, the process exits
// or timeout passes.
func (c *child) expect(what string, timeout time.Duration, match func(line string) bool) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case line, ok := <-c.lines:
			if !ok {
				return fmt.Errorf("%s exited before %s (log: %s)\n%s", c.name, what, c.logPath, c.logTail())
			}
			if match(line) {
				return nil
			}
		case <-deadline.C:
			return fmt.Errorf("timed out after %v waiting for %s from %s (log: %s)\n%s", timeout, what, c.name, c.logPath, c.logTail())
		}
	}
}

// expectLine waits for a protocol line equal to want.
func (c *child) expectLine(want string, timeout time.Duration) error {
	return c.expect(want, timeout, func(line string) bool { return line == want })
}

// send writes one command line to the child's stdin.
func (c *child) send(line string) error {
	_, err := io.WriteString(c.stdin, line+"\n")
	return err
}

// stop asks the process to exit by closing its stdin, then escalates.
func (c *child) stop(timeout time.Duration) error {
	c.stopOnce.Do(func() { _ = c.stdin.Close() })
	select {
	case <-c.done:
		return c.waitErr
	case <-time.After(timeout):
		c.kill()
		return fmt.Errorf("%s did not exit within %v; killed", c.name, timeout)
	}
}

// terminate sends SIGINT (the broker shuts down cleanly on it) and waits.
func (c *child) terminate(timeout time.Duration) {
	_ = c.cmd.Process.Signal(os.Interrupt)
	select {
	case <-c.done:
	case <-time.After(timeout):
		c.kill()
	}
}

// kill ends the process now and reaps it.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.done
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) logTail() string {
	raw, err := os.ReadFile(c.logPath)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) > 15 {
		lines = lines[len(lines)-15:]
	}
	return strings.Join(lines, "\n")
}
