// Wire messages exchanged by consensus nodes.
//
// Proposals are unsigned but travel over authenticated channels (paper §II);
// votes and timeouts are individually signed. Message identity on the wire is
// a type tag plus the canonical serialization of the body; the network
// simulator charges bandwidth for serialized size (including synthetic
// payload bytes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <variant>

#include "types/block.hpp"
#include "types/certs.hpp"
#include "types/ids.hpp"
#include "types/vote.hpp"

namespace moonshot {

/// ⟨propose, B_k, C_v'(B_h), v⟩ — a normal proposal justifying its parent
/// with a block certificate. Jolteon and HotStuff attach a TC when proposing
/// after a view change; Moonshot normal proposals leave `tc` null.
struct ProposalMsg {
  BlockPtr block;
  QcPtr justify;
  TcPtr tc;  // Jolteon and HotStuff, when justify is not from the previous view
  NodeId sender = kNoNode;
};

/// ⟨opt-propose, B_k, v⟩ — an optimistic proposal: no justification, the
/// proposer is betting that its parent becomes certified.
struct OptProposalMsg {
  BlockPtr block;
  NodeId sender = kNoNode;
};

/// ⟨fb-propose, B_k, C_v'(B_h), TC_{v-1}, v⟩ — Pipelined/Commit Moonshot's
/// fallback proposal, justified by a timeout certificate.
struct FbProposalMsg {
  BlockPtr block;
  QcPtr justify;
  TcPtr tc;
  NodeId sender = kNoNode;
};

/// A single signed vote (any kind).
struct VoteMsg {
  Vote vote;
};

/// A single signed timeout.
struct TimeoutMsgWrap {
  TimeoutMsg timeout;
};

/// A block certificate forwarded on view entry (reorg resilience / sync).
struct CertMsg {
  QcPtr qc;
  NodeId sender = kNoNode;
};

/// A timeout certificate forwarded on view entry.
struct TcMsg {
  TcPtr tc;
  NodeId sender = kNoNode;
};

/// ⟨status, v', lock⟩ — Simple Moonshot: a node entering view v' with a
/// stale lock reports it to L_{v'}.
struct StatusMsg {
  View view = 0;
  QcPtr lock;
  NodeId sender = kNoNode;
};

/// Block synchronisation (catch-up): a node missing a block body — e.g.
/// after a partition heals — requests it from a peer. Not part of the
/// paper's protocol figures; every deployment needs an equivalent.
struct BlockRequestMsg {
  BlockId id{};
  NodeId sender = kNoNode;
};

/// Response to a BlockRequestMsg. The block's identity is content-derived,
/// so a malicious responder cannot substitute a different body.
struct BlockResponseMsg {
  BlockPtr block;
  NodeId sender = kNoNode;
};

using Message = std::variant<ProposalMsg, OptProposalMsg, FbProposalMsg, VoteMsg,
                             TimeoutMsgWrap, CertMsg, TcMsg, StatusMsg, BlockRequestMsg,
                             BlockResponseMsg>;
using MessagePtr = std::shared_ptr<const Message>;

/// Canonical serialization (type tag + body). Blocks inside proposals are
/// serialized in full; synthetic payload bytes are *not* materialized but are
/// added to wire_size().
void serialize_message(const Message& m, Writer& w);

/// Parses a message; returns nullptr on malformed input.
MessagePtr deserialize_message(Reader& r);

/// Bytes this message occupies on the wire (serialized size + synthetic
/// payload bytes it stands for).
std::uint64_t message_wire_size(const Message& m);

/// Human-readable tag for logging.
const char* message_type_name(const Message& m);

template <typename T, typename... Args>
MessagePtr make_message(Args&&... args) {
  return std::make_shared<const Message>(T{std::forward<Args>(args)...});
}

}  // namespace moonshot
