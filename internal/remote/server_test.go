package remote

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// shortHandshake shortens the server's handshake deadline for one test.
func shortHandshake(t *testing.T, d time.Duration) {
	old := handshakeTimeout
	handshakeTimeout = d
	t.Cleanup(func() { handshakeTimeout = old })
}

// serveOne runs the server's handler on one end of an in-memory pipe and
// returns the client end and a channel closed when the handler returns.
func serveOne(t *testing.T, s *Server) (net.Conn, <-chan struct{}) {
	client, conn := net.Pipe()
	t.Cleanup(func() { client.Close() })
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.handle(context.Background(), conn, 1)
	}()
	return client, done
}

// TestSilentClientHandshakeTimesOut: a connection that never sends its
// hello is closed once the handshake deadline passes, and its handler
// goroutine returns instead of waiting forever.
func TestSilentClientHandshakeTimesOut(t *testing.T) {
	shortHandshake(t, 20*time.Millisecond)
	client, done := serveOne(t, &Server{NewRunner: func([]byte) (Runner, error) {
		t.Error("NewRunner called without a hello")
		return testRunner(), nil
	}})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler still waiting on a silent client's hello")
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("client read = %v, want io.EOF from the closed connection", err)
	}
}

// TestIdleAfterHandshakeIsServed: the handshake deadline is cleared once
// the hello is accepted, so a dispatcher that idles between batches for
// longer than the deadline is still served.
func TestIdleAfterHandshakeIsServed(t *testing.T) {
	shortHandshake(t, 20*time.Millisecond)
	client, done := serveOne(t, &Server{NewRunner: func([]byte) (Runner, error) { return testRunner(), nil }})
	if err := writeMsg(client, &msg{Op: opHello, Proto: ProtoVersion}); err != nil {
		t.Fatal(err)
	}
	if m, err := readMsg(client); err != nil || m.Op != opHelloOK {
		t.Fatalf("handshake reply = %+v, %v; want helloOK", m, err)
	}
	time.Sleep(5 * handshakeTimeout)
	if err := writeMsg(client, &msg{Op: opExec, Seq: 1, Indices: []int{3}}); err != nil {
		t.Fatalf("exec after idling: %v", err)
	}
	m, err := readMsg(client)
	if err != nil || m.Op != opJobDone || !bytes.Equal(m.Payload, rowPayload(3)) {
		t.Fatalf("job reply = %+v, %v; want job 3's row", m, err)
	}
	if m, err := readMsg(client); err != nil || m.Op != opBatchDone || m.Seq != 1 {
		t.Fatalf("batch reply = %+v, %v; want batchDone seq 1", m, err)
	}
	client.Close()
	<-done
}
