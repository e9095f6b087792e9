package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Load parses and validates a scenario spec from JSON. Unknown fields are
// rejected, so typos in knob structure fail loudly instead of silently
// running the default machine.
func Load(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	// A second document in the stream is almost certainly a mistake.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return Spec{}, fmt.Errorf("scenario: trailing data after spec")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadFile reads and validates a scenario spec file.
func LoadFile(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	s, err := Load(f)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
