// topology is a leaf: no first-party imports at all, not even another
// leaf.
package topology

import (
	_ "wirelesshart/internal/stats" // want `import of wirelesshart/internal/stats: not a registered edge of the internal/topology layer`
)
