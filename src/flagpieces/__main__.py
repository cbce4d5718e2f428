import gc
import sys

from .cli import main

if __name__ == "__main__":
    code = main()
    # the collection at interpreter exit walks every object left, which the
    # OS frees anyway; frozen objects are out of its reach. main has reaped
    # its verify workers and closed their pipes, so nothing is left to finalize
    gc.freeze()
    sys.exit(code)
