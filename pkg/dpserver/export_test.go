package dpserver

import "net/http"

// Reply is the server's one writer of a query answer, for FuzzWireCodec's
// answers built from fuzz bytes.
func (s *Server) Reply(w http.ResponseWriter, resp QueryResponse) { s.reply(w, &resp) }
