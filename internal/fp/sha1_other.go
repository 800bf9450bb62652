//go:build !amd64

package fp

import "crypto/sha1"

// New computes the fingerprint of data.
func New(data []byte) FP { return sha1.Sum(data) }
