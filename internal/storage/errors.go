package storage

import (
	"errors"
	"fmt"
)

// NotFoundError reports a missing key. Err carries the underlying cause when
// one exists (e.g. the os.ReadFile error from the file store) so callers can
// still reach the OS detail through errors.Is/As.
type NotFoundError struct {
	Key string
	Err error
}

// Error implements error.
func (e *NotFoundError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("storage: key %q not found: %v", e.Key, e.Err)
	}
	return fmt.Sprintf("storage: key %q not found", e.Key)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *NotFoundError) Unwrap() error { return e.Err }

// IsNotFound reports whether err indicates a missing key, unwrapping any
// context added by callers (the warehouse wraps store errors with the
// dataset/partition coordinates).
func IsNotFound(err error) bool {
	var nf *NotFoundError
	return errors.As(err, &nf)
}

// CorruptError reports a stored sample whose bytes failed checksum or
// structural validation on read. Corruption is permanent: retrying the read
// cannot help. The file store quarantines the offending file (renames it to
// a ".corrupt" sibling) before returning this error, so the key reads as
// missing afterwards instead of repeatedly half-decoding.
type CorruptError struct {
	Key string
	Err error
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("storage: key %q corrupt: %v", e.Key, e.Err)
}

// Unwrap exposes the decode failure to errors.Is/As.
func (e *CorruptError) Unwrap() error { return e.Err }

// IsCorrupt reports whether err indicates permanently corrupted stored
// bytes, unwrapping any caller-added context.
func IsCorrupt(err error) bool {
	var c *CorruptError
	return errors.As(err, &c)
}
