"""Text rendering for tables and series (no plotting dependency)."""
