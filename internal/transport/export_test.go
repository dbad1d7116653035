package transport

// The external test package (it may import builtin, which imports this
// package) fuzzes the codec through these: Encode and Decode borrow a pooled
// scratch, and a sync.Pool's hit-or-miss makes coverage differ between two
// runs of one input, which stalls the fuzzer's minimizer for its full budget.

// EncodeFresh is Encode on a buffer of its own.
func EncodeFresh(m Message) ([]byte, error) {
	frame, err := appendFrame(nil, m)
	if err != nil {
		return nil, err
	}
	return frame[4:], nil
}

// DecodeFresh is Decode on a decoder of its own.
func DecodeFresh(b []byte) (Message, error) { return new(decoder).decode(b) }
