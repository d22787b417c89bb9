package ipc

import (
	"errors"
	"fmt"
	"net"
	"time"
)

// ErrClientClosed is returned by Call after the client has been Closed.
var ErrClientClosed = errors.New("ipc: client closed")

// TimeoutError reports a Call that could not complete within its per-call
// deadline: the transport was alive but the response did not arrive in time
// (a dropped frame, a stalled server, injected delay faults). It satisfies
// the net.Error Timeout convention.
type TimeoutError struct {
	Op    string        // "connect", "write", or "read"
	After time.Duration // the deadline that was exceeded
}

// Error names the operation and the deadline it exceeded.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("ipc: %s timed out after %v", e.Op, e.After)
}

// Timeout marks the error as a deadline expiry (net.Error convention).
func (e *TimeoutError) Timeout() bool { return true }

// DisconnectError reports a broken connection: the peer went away or sent a
// frame that does not decode. The connection is dropped; the next Call
// redials with capped exponential backoff.
type DisconnectError struct {
	Op    string
	Cause error
}

// Error names the operation the connection died under and its cause.
func (e *DisconnectError) Error() string {
	return fmt.Sprintf("ipc: connection lost during %s: %v", e.Op, e.Cause)
}

// Unwrap exposes the underlying transport error to errors.Is/As.
func (e *DisconnectError) Unwrap() error { return e.Cause }

// OverloadError reports an admission-control rejection decoded from an
// OverloadResp frame: the service shed the request at its door instead of
// queueing it. Unlike a transport failure, the request was observably NEVER
// admitted — so resubmitting a retryable overload is safe for every request
// kind, launches included. Backoff is the server's suggested minimum wait;
// Retryable false means the request can never be admitted under the current
// server configuration (e.g. payload larger than the byte quota).
type OverloadError struct {
	Msg       string
	Backoff   time.Duration
	Retryable bool
}

// Error renders the server's shed message.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("ipc: overloaded: %s", e.Msg)
}

// AsOverload unwraps err to its *OverloadError, if it is one.
func AsOverload(err error) (*OverloadError, bool) {
	var oe *OverloadError
	if errors.As(err, &oe) {
		return oe, true
	}
	return nil, false
}

// IsRetryable reports whether err is a transport-level failure (timeout or
// disconnect) after which re-issuing an *idempotent* request is safe. The
// cudart layer uses it to retry copies and memsets but never launches or
// allocations. Overload sheds are deliberately NOT transport-retryable:
// they follow a separate backoff-honouring retry contract (see AsOverload)
// precisely because a shed request was never admitted.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	var te *TimeoutError
	var de *DisconnectError
	return errors.As(err, &te) || errors.As(err, &de)
}

// transportErr classifies a raw connection error into the typed errors
// above. Errors that are already typed (e.g. an injected fault, or a typed
// cause threaded through a teardown) pass through unwrapped.
func transportErr(op string, err error, timeout time.Duration) error {
	var te *TimeoutError
	var de *DisconnectError
	if errors.As(err, &te) || errors.As(err, &de) {
		return err
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return &TimeoutError{Op: op, After: timeout}
	}
	return &DisconnectError{Op: op, Cause: err}
}
