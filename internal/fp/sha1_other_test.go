//go:build !amd64

package fp

// implName names the SHA-1 path New runs.
func implName() string { return "crypto/sha1" }
