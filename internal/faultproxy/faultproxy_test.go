package faultproxy

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"testing"
	"time"
)

// startEcho runs a TCP echo server and returns its address.
func startEcho(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(c, c)
				c.Close()
			}()
		}
	}()
	return ln.Addr().String()
}

func dialProxy(t *testing.T, px *Proxy) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", px.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestFaultProxyCleanForwarding(t *testing.T) {
	px, err := New(startEcho(t))
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	c := dialProxy(t, px)
	msg := bytes.Repeat([]byte("debar"), 1000)
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("echo mismatch through clean proxy")
	}
	if n := px.Accepted(); n != 1 {
		t.Fatalf("Accepted = %d, want 1", n)
	}
}

func TestFaultProxyCutAfterBytes(t *testing.T) {
	px, err := New(startEcho(t))
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	px.SetPlan(Plan{CutC2S: 4 << 10})

	c := dialProxy(t, px)
	buf := make([]byte, 1<<10)
	var sent int
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c.SetWriteDeadline(time.Now().Add(time.Second))
		n, err := c.Write(buf)
		sent += n
		if err != nil {
			if sent < 4<<10 {
				t.Fatalf("connection died after %d bytes, before the 4KiB cut", sent)
			}
			return // cut observed
		}
	}
	t.Fatal("connection survived far past the configured cut")
}

func TestFaultProxyStallHalfOpen(t *testing.T) {
	px, err := New(startEcho(t))
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	px.SetPlan(Plan{StallS2C: 2 << 10})

	c := dialProxy(t, px)
	msg := make([]byte, 8<<10)
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	// The first 2KiB echo back, then the link goes silent without a FIN:
	// a bounded read must hit its deadline, not EOF.
	got := make([]byte, 2<<10)
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("reading pre-stall bytes: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	_, err = c.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("post-stall read = %v, want deadline exceeded (half-open stall)", err)
	}
}

func TestFaultProxyFailConnsPrefix(t *testing.T) {
	px, err := New(startEcho(t))
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	// Cut the first connection almost immediately; later ones are clean.
	px.SetPlan(Plan{CutC2S: 1, FailConns: 1})

	c1 := dialProxy(t, px)
	c1.SetReadDeadline(time.Now().Add(5 * time.Second))
	c1.Write([]byte("xx"))
	if _, err := c1.Read(make([]byte, 1)); err == nil {
		t.Fatal("first connection survived the cut plan")
	}

	c2 := dialProxy(t, px)
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c2.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if _, err := io.ReadFull(c2, got); err != nil {
		t.Fatalf("second connection should be clean: %v", err)
	}
	if px.Accepted() != 2 {
		t.Fatalf("Accepted = %d, want 2", px.Accepted())
	}
}

func TestFaultProxyBandwidthCap(t *testing.T) {
	px, err := New(startEcho(t))
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	px.SetPlan(Plan{BandwidthBPS: 64 << 10}) // 64 KiB/s

	c := dialProxy(t, px)
	start := time.Now()
	msg := make([]byte, 32<<10) // should take ~500ms at the cap
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, make([]byte, len(msg))); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 250*time.Millisecond {
		t.Fatalf("32KiB round-trip took %v under a 64KiB/s cap; pacing not applied", elapsed)
	}
}

// TestFaultProxyCutAllReleasesStalledPipes is the regression test for a
// goroutine leak: a pipe parked in a half-open stall waited only on the
// proxy-wide release channel, so CutAll (which just closed the sockets)
// left it blocked until proxy Close. CutAll must tear the pair down and
// return the forwarding goroutines to baseline.
func TestFaultProxyCutAllReleasesStalledPipes(t *testing.T) {
	px, err := New(startEcho(t))
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	base := runtime.NumGoroutine()
	px.SetPlan(Plan{StallC2S: 1})

	c := dialProxy(t, px)
	if _, err := c.Write(make([]byte, 1<<10)); err != nil {
		t.Fatal(err)
	}
	// One byte echoes back, proving the C2S pipe forwarded its quota and
	// is now parked in the stall.
	if _, err := io.ReadFull(c, make([]byte, 1)); err != nil {
		t.Fatalf("reading pre-stall byte: %v", err)
	}

	px.CutAll()

	// The client must observe the severed connection (not a silent stall).
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("post-CutAll read = %v, want connection error", err)
	}

	// Both pipes (and the echo server's copier) must exit without Close.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after CutAll: %d, want <= %d (stalled pipe leaked)",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestFaultProxyCloseReleasesStalledConns(t *testing.T) {
	px, err := New(startEcho(t))
	if err != nil {
		t.Fatal(err)
	}
	px.SetPlan(Plan{StallC2S: 1})

	c := dialProxy(t, px)
	if _, err := c.Write(make([]byte, 1<<10)); err != nil {
		t.Fatal(err)
	}
	// The one byte forwarded before the stall comes back from the echo
	// server. Reading it first proves the pair is established and stalled;
	// a Read racing it would legitimately succeed.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, make([]byte, 1)); err != nil {
		t.Fatalf("reading the byte forwarded before the stall: %v", err)
	}
	c.SetReadDeadline(time.Time{})
	done := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		done <- err
	}()

	if err := px.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("stalled connection read succeeded after proxy close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("proxy Close did not release the stalled connection")
	}
}
