package mpi

// Done reports completion without attempting to complete the request.
func (r *Request) Done() bool { return r.done }

// holdsPayload reports whether the request still references a received
// payload.
func (r *Request) holdsPayload() bool { return r.payload != nil }
