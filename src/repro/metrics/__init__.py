"""Statistics helpers shared by the analysis pipeline and benches."""
