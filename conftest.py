import sys

# A test run writes no bytecode under src/, whichever of tests/ and
# perfbench/ it collects: this file loads before either imports ndc.
sys.dont_write_bytecode = True
