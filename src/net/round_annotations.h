// DASH_ROUND: source-level annotations binding wire call sites to the
// protocol round model in tools/protocol_model.yaml.
//
// Every Send/Receive/Broadcast call site in a protocol implementation
// file (the files listed under `runners:` in the model) must be
// preceded by a DASH_ROUND(round_key, tag) annotation naming the model
// round it implements and the MessageTag it moves. tools/dash_proto.py
// extracts these annotations, matches them against the call's
// MessageTag literal, and checks the reconstructed round choreography
// against the model (PC001-PC005; see DESIGN.md §16).
//
// The annotation is zero-cost: it expands to a static_assert that only
// validates (at compile time) that `tag` names a real MessageTag
// enumerator, so an annotation can never drift from net/message.h.
// The round key is a bare identifier; dash_proto validates it against
// tools/protocol_model.yaml (an unknown key is a PC000 finding).
//
// Placement: on its own line, directly above the statement containing
// the wire call (within a few lines; dash_proto binds an annotation to
// the next wire call in the same function). One annotation covers
// exactly one call site. Every round is implemented once, from one
// party's view, so each round has one send and one receive site.

#ifndef DASH_NET_ROUND_ANNOTATIONS_H_
#define DASH_NET_ROUND_ANNOTATIONS_H_

#include "net/message.h"

// static_assert(sizeof(enumerator) > 0) is always true when it
// compiles, but fails to compile when `tag` does not name a
// MessageTag enumerator — so annotations cannot name phantom tags.
#define DASH_ROUND(round_key, tag)                                        \
  static_assert(sizeof(::dash::MessageTag::tag) > 0,                      \
                "DASH_ROUND tag must name a MessageTag from net/message.h")

#endif  // DASH_NET_ROUND_ANNOTATIONS_H_
