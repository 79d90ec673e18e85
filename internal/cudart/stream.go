package cudart

// Stream is a CUDA stream handle. Streams let cuDNN overlap host-device
// copies with kernel execution; the paper found GPGPU-Sim's stream support
// incomplete (missing cudaStreamWaitEvent) and completed it (§III-B).
type Stream int

// DefaultStream is stream 0.
const DefaultStream Stream = 0

// Event is a CUDA event handle.
type Event int

// StreamCreate returns a new stream.
func (c *Context) StreamCreate() Stream {
	c.nextStream++
	s := c.nextStream
	c.streams[s] = true
	return s
}

// StreamDestroy removes a stream (draining its queued work first, like
// cudaStreamDestroy on a stream with outstanding operations).
func (c *Context) StreamDestroy(s Stream) {
	if s != DefaultStream {
		_ = c.drainPending()
		delete(c.streams, s)
	}
}

// EventCreate returns a new event.
func (c *Context) EventCreate() Event {
	c.nextEvent++
	e := c.nextEvent
	c.events[e] = true
	return e
}

// EventRecord records the event behind the stream's work so far. It is a
// drain point: everything queued ahead of it has retired — and its
// effects are in memory — when it returns.
func (c *Context) EventRecord(e Event, s Stream) error {
	if err := c.drainPending(); err != nil {
		return err
	}
	if !c.events[e] {
		return errBadEvent(e)
	}
	if !c.streams[s] {
		return errBadStream(s)
	}
	return nil
}

// StreamWaitEvent makes all later work in the stream wait for the event —
// the API call the paper added to GPGPU-Sim for cuDNN (§III-B). Recording
// an event drains, so whatever the event stands for has already retired
// when later work is queued: the wait holds by construction, and only
// the handles are checked.
func (c *Context) StreamWaitEvent(s Stream, e Event) error {
	if !c.streams[s] {
		return errBadStream(s)
	}
	if !c.events[e] {
		return errBadEvent(e)
	}
	return nil
}

// StreamSynchronize blocks until a stream's work completes: queued async
// operations drain through the detailed model (when one is installed).
// Errors from drained kernels surface here.
func (c *Context) StreamSynchronize(s Stream) error {
	derr := c.drainPending()
	if !c.streams[s] {
		return errBadStream(s)
	}
	return c.stickyError(derr)
}

// DeviceSynchronize waits for all streams. Errors from drained async
// kernels surface here.
func (c *Context) DeviceSynchronize() error { return c.stickyError(c.drainPending()) }

// stickyError is CUDA-style sticky error reporting for the explicit
// synchronisation calls: the failure is the drain's own or, failing
// that, the one an earlier implicit drain stored, and returning it
// consumes it.
func (c *Context) stickyError(derr error) error {
	if derr == nil {
		derr = c.asyncErr
	}
	c.asyncErr = nil
	return derr
}

// MemcpyHtoDAsync is an asynchronous host-to-device copy on a stream.
//
// With a StreamRunner installed (performance mode) and a non-default
// stream, the copy is queued into the detailed model: it orders against
// kernels on its stream, serialises on the modelled copy engine, and its
// functional memory effect happens when the modelled transfer completes
// — so copy/kernel overlap shows up in the engine's cycle numbers.
// Otherwise (functional runner, or the legacy device-synchronizing
// default stream), the copy happens immediately.
func (c *Context) MemcpyHtoDAsync(dst uint64, src []byte, s Stream) error {
	if !c.streams[s] {
		return errBadStream(s)
	}
	if sr, async := c.runner.(StreamRunner); async && s != DefaultStream {
		// The host buffer may be reused before the drain: snapshot it,
		// matching cudaMemcpyAsync's pageable-memory staging behaviour.
		staged := append([]byte(nil), src...)
		tk := sr.SubmitCopy(int(s), len(src), func() { c.Mem.Write(dst, staged) })
		c.pending = append(c.pending, pendingLaunch{ticket: tk, logIdx: -1})
		return nil
	}
	_ = c.drainPending()
	c.Mem.Write(dst, src)
	return nil
}

type errBadStream Stream

func (e errBadStream) Error() string { return "cudart: invalid stream handle" }

type errBadEvent Event

func (e errBadEvent) Error() string { return "cudart: invalid event handle" }
