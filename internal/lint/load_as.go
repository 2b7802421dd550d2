package lint

// LoadDirAs loads the single package in dir under an assumed import path.
// The fixture tests use this to exercise path-based allowlists: the same
// fixture package is loaded once as an internal simulation package (where a
// rule fires) and once under an allowlisted path (where it must not).
//
// The load bypasses the memo for path in both directions: a package already
// loaded from the real path cannot stand in for the fixture, and the
// fixture never shadows the real package for later imports of that path.
func (l *Loader) LoadDirAs(path, dir string) (*Package, error) {
	return l.typeCheck(path, dir)
}
