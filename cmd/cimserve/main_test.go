package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestSlowHeaderConnectionIsClosed sends a request whose headers never
// finish: the server must close the connection once the header timeout
// derived from -timeout expires, instead of holding it open forever.
func TestSlowHeaderConnectionIsClosed(t *testing.T) {
	const timeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(ln.Addr().String(), http.NotFoundHandler(), timeout)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/run HTTP/1.1\r\nHost: cimserve\r\n"); err != nil {
		t.Fatal(err)
	}
	const bound = 5 * time.Second
	conn.SetReadDeadline(start.Add(bound))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection still open after %v: %v", time.Since(start).Round(time.Millisecond), err)
	}
	if d := time.Since(start); d < timeout {
		t.Fatalf("connection closed after %v, before the %v header timeout", d, timeout)
	}
}
