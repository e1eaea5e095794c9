"""Building blocks of the repository benchmark (``perfbench/run.py``).

The benchmark drives the ``repro`` package only through its public
functions, its command line and its HTTP endpoints; every timer, span and
counter lives in these files, never inside the program.
"""
