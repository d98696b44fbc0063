package main

import (
	"bufio"
	"bytes"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain re-executes the test binary as the daemon itself when
// ALSD_TEST_MAIN is set, so a test can signal a real alsd process.
func TestMain(m *testing.M) {
	if os.Getenv("ALSD_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSIGTERMAfterReadyDrains sends SIGTERM the moment /readyz first
// answers 200 and expects a clean drain: exit status 0 and the shutdown
// line. The signal handler must be installed before the daemon reports
// ready, or the default action kills the process in that window.
func TestSIGTERMAfterReadyDrains(t *testing.T) {
	for run := 0; run < 20; run++ {
		cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0")
		cmd.Env = append(os.Environ(), "ALSD_TEST_MAIN=1")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		lines := bufio.NewScanner(stdout)
		addr := ""
		for addr == "" && lines.Scan() {
			addr, _ = strings.CutPrefix(lines.Text(), "alsd: listening on ")
		}
		if addr == "" {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatalf("run %d: no listening line; stderr: %s", run, stderr.String())
		}
		waitReady(t, cmd, "http://"+addr+"/readyz")
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		var rest strings.Builder
		for lines.Scan() {
			rest.WriteString(lines.Text() + "\n")
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("run %d: daemon did not exit cleanly after SIGTERM: %v; stderr: %s", run, err, stderr.String())
		}
		if !strings.Contains(rest.String(), "alsd: shutting down") {
			t.Fatalf("run %d: no shutdown line in %q", run, rest.String())
		}
	}
}

// waitReady polls url until it answers 200, killing the daemon and
// failing the test after ten seconds.
func waitReady(t *testing.T, cmd *exec.Cmd, url string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if resp, err := http.Get(url); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	_ = cmd.Process.Kill()
	_ = cmd.Wait()
	t.Fatalf("%s never answered 200", url)
}
