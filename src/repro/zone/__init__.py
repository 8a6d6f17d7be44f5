"""Zone model: containers, NSEC/NSEC3 chains, whole-zone signing."""
