"""Task-aware adaptive modulation for class-incremental node classification.

A frozen random graph backbone is steered by one small modulator per task;
task identity at inference is recovered by nearest-prototype retrieval over
propagated features.  See the README for the CLI and file formats.  The
package exports nothing itself: import its submodules.
"""
