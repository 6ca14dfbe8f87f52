package traffic

import (
	"bufio"
	"fmt"
	"io"
)

// WriteTrace emits records in the format ParseTrace reads.
func WriteTrace(w io.Writer, recs []TraceRecord) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "cycle,src,dst,flits"); err != nil {
		return err
	}
	for _, r := range recs {
		if _, err := fmt.Fprintf(bw, "%d,%d,%d,%d\n", r.Cycle, r.Src, r.Dst, r.Flits); err != nil {
			return err
		}
	}
	return bw.Flush()
}
